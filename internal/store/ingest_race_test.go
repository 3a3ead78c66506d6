package store

// The -race stress battery for the streaming write path: concurrent
// ingesters vs queriers vs the background compactor vs snapshots vs
// drop/re-add churn. Beyond data races, the queriers assert the
// staleness contract — once an ingest batch is acknowledged, every
// later query observes it (COUNT over the full domain is monotonic in
// the acknowledged total, even through the result cache), so a stale
// cached answer surfaces as a test failure, not just a race report.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoblocks"
	"geoblocks/internal/geom"
)

func TestIngestRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	dataDir := t.TempDir()
	st := New()
	st.EnableIngest(IngestConfig{
		WALDir:          dataDir,
		DeltaMaxRows:    1_000_000,
		CompactInterval: 2 * time.Millisecond,
		OnError:         func(err error) { t.Errorf("background compaction: %v", err) },
	})
	opts := Options{Level: 11, ShardLevel: 1, PyramidLevels: 2, CacheThreshold: 0.1, ResultCacheBytes: 1 << 20}
	d := buildDataset(t, "race", 5000, 11, opts)
	if err := st.Add(d); err != nil {
		t.Fatal(err)
	}
	baseRes, err := d.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	base := baseRes.Count

	const ingesters = 4
	const batches = 25
	const batchRows = 40
	var ackedTotal atomic.Uint64 // rows acknowledged so far, across all ingesters
	var ingWG, wg sync.WaitGroup
	done := make(chan struct{})

	// checkVisible asserts the read-your-writes bound: every row
	// acknowledged BEFORE the query started must be counted.
	checkVisible := func(rng *rand.Rand, label string) {
		floor := base + ackedTotal.Load()
		qopts := geoblocks.QueryOptions{}
		if rng.Intn(3) == 0 {
			qopts.MaxError = 0.5 // full-domain covering is exact at every level
		}
		res, err := d.QueryRectOpts(testBound, qopts, geoblocks.Count())
		if err != nil {
			t.Errorf("%s: query: %v", label, err)
			return
		}
		if res.Count < floor {
			t.Errorf("%s: stale answer: count %d < acknowledged floor %d", label, res.Count, floor)
		}
	}

	// Ingesters: acknowledge a batch, then immediately verify their own
	// write is visible.
	for i := 0; i < ingesters; i++ {
		ingWG.Add(1)
		go func(id int) {
			defer ingWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for b := 0; b < batches; b++ {
				pts, cols := genIngestRows(rng, batchRows)
				if _, err := d.Ingest(pts, cols); err != nil {
					t.Errorf("ingester %d: %v", id, err)
					return
				}
				ackedTotal.Add(batchRows)
				checkVisible(rng, fmt.Sprintf("ingester %d", id))
			}
		}(i)
	}

	// Queriers: hot footprints (result-cache hits), random footprints,
	// batch queries; each checks the monotonic floor.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + id)))
			hot := geom.RectFromCenter(geom.Pt(50, 50), 20, 20)
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					checkVisible(rng, fmt.Sprintf("querier %d", id))
				case 1:
					if _, err := d.QueryRect(hot, testReqs...); err != nil {
						t.Errorf("querier %d: hot rect: %v", id, err)
						return
					}
				case 2:
					polys := []*geom.Polygon{
						geoblocks.RegularPolygon(geom.Pt(rng.Float64()*100, rng.Float64()*100), 5+rng.Float64()*15, 5),
						geoblocks.RegularPolygon(geom.Pt(rng.Float64()*100, rng.Float64()*100), 5+rng.Float64()*15, 6),
					}
					if _, _, err := d.Join(polys, geoblocks.QueryOptions{MaxError: 0.3}, testReqs...); err != nil {
						t.Errorf("querier %d: join: %v", id, err)
						return
					}
				}
			}
		}(i)
	}

	// Explicit folds racing the background compactor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := d.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Snapshots mid-stream (each folds, serialises and truncates the WAL).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			default:
			}
			dir := filepath.Join(dataDir, fmt.Sprintf("race-snap-%d", n))
			if _, err := d.Snapshot(dir); err != nil {
				t.Errorf("snapshot %d: %v", n, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Drop/re-add churn on a second dataset sharing the store (and its
	// ingest policy): registration, WAL attach, compactor start/stop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3000))
		for n := 0; n < 10; n++ {
			select {
			case <-done:
				return
			default:
			}
			churn := buildDataset(t, "churn", 500, int64(n), Options{Level: 10})
			if err := st.Add(churn); err != nil {
				t.Errorf("churn add %d: %v", n, err)
				return
			}
			pts, cols := genIngestRows(rng, 50)
			if _, err := churn.Ingest(pts, cols); err != nil {
				t.Errorf("churn ingest %d: %v", n, err)
				return
			}
			if !st.Drop("churn") {
				t.Errorf("churn drop %d failed", n)
				return
			}
		}
	}()

	// Stop the open-ended goroutines once every ingester has finished.
	go func() {
		ingWG.Wait()
		close(done)
	}()
	ingWG.Wait()
	wg.Wait()

	// Quiesce and verify the final fold: every acknowledged row present
	// exactly once, and the folded dataset answers like a scratch rebuild.
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if d.DeltaRows() != 0 {
		t.Fatalf("delta rows after final compact: %d", d.DeltaRows())
	}
	res, err := d.QueryRect(testBound, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	want := base + uint64(ingesters*batches*batchRows)
	if res.Count != want {
		t.Fatalf("final count %d, want %d", res.Count, want)
	}
	st.Close()
}
