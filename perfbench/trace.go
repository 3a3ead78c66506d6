package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// span is one timed call of the traced replay. Spans of one request
// share Req; Parent is the index of the enclosing span (-1 for a root).
type span struct {
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer replays requests decomposed into the layers' public calls:
// the handler call (its store time read from the response's elapsed_us),
// then Dataset.PlanCover → ShardSubs → ShardPartial per shard →
// Accumulator.MergeFrom/Result for queries, PlanJoin then Join for
// joins, Ingest and Compact for writes. The result cache, per-shard
// caches and residency are read as counter deltas around the handler
// call. Spans stay in memory until write.
type tracer struct {
	e        *env
	t0       time.Time
	spans    []span
	dom      cellid.Domain
	coverers map[int]*cover.Coverer
	reqs     []geoblocks.AggRequest

	cells                       []int64
	interiorCells, coveredCells int
	shards, queries             int
	deltaRows                   int64
	boundUnmet                  int
	rcHits, rcMisses            uint64
	rcStale, rcEvictions        uint64
	probes, fullHits            uint64
	faults, evictions           uint64
	joinInterior, joinBoundary  int
	joinFallbacks               int
	walBytes, ingestedRows      int64
	compactRows                 int
	compactMicros               int64
}

func newTracer(e *env) *tracer {
	return &tracer{
		e:        e,
		t0:       time.Now(),
		dom:      cellid.MustDomain(e.bound),
		coverers: map[int]*cover.Coverer{},
		reqs:     []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("fare_amount"), geoblocks.Min("fare_amount"), geoblocks.Max("fare_amount")},
	}
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Req: req, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0).Nanoseconds() }

// coverer is a replica of the dataset's coverer at a planned level
// (cover.DefaultOptions over the dataset's domain), used to read the
// interior/boundary split PlanCover does not return.
func (t *tracer) coverer(lvl int) *cover.Coverer {
	c, ok := t.coverers[lvl]
	if !ok {
		c = cover.MustCoverer(t.dom, cover.DefaultOptions(lvl))
		t.coverers[lvl] = c
	}
	return c
}

func (t *tracer) exec(o *op, id int) (response, error) {
	root := t.begin("request", -1, id)
	defer t.end(root)
	switch o.kind {
	case opIngest:
		return t.ingest(o, root, id)
	case opCompact:
		return t.compact(root, id)
	}
	resp, err := t.handler(o, root, id)
	if err != nil {
		return resp, err
	}
	for _, r := range answers(resp) {
		if float64(r.ErrorBound) > o.maxErr {
			t.boundUnmet++
		}
	}
	if o.kind == opQuery {
		if resp.Result == nil {
			return resp, fmt.Errorf("query answered without a result")
		}
		return resp, t.query(o, root, id, *resp.Result)
	}
	return resp, t.join(o, root, id, resp.Results)
}

// handler sends the request through httpapi and attributes the cache
// and residency counter deltas to it.
func (t *tracer) handler(o *op, root, id int) (response, error) {
	d := t.e.d
	rc0, ag0, rs0 := *d.ResultCacheStats(), d.StatsSummary().Cache, t.e.residency()
	s := t.begin("http", root, id)
	resp, _, err := serve(t.e.h, o)
	t.end(s)
	rc1, ag1, rs1 := *d.ResultCacheStats(), d.StatsSummary().Cache, t.e.residency()
	if err != nil {
		return resp, err
	}
	// The handler times its own store call; record it as the http span's
	// child so httpapi's self time is the rest.
	end := t.spans[s].End
	t.spans = append(t.spans, span{Req: id, Parent: s, Name: "store", Start: end - resp.ElapsedUS*1000, End: end})
	t.rcHits += rc1.Hits - rc0.Hits
	t.rcMisses += rc1.Misses - rc0.Misses
	t.rcStale += rc1.StaleMisses - rc0.StaleMisses
	t.rcEvictions += rc1.Evictions - rc0.Evictions
	// Per-shard cache counters live in the shard blocks; an evicted
	// mapped shard takes its counters with it, so only growth counts.
	if ag1.Probes > ag0.Probes {
		t.probes += ag1.Probes - ag0.Probes
	}
	if ag1.FullHits > ag0.FullHits {
		t.fullHits += ag1.FullHits - ag0.FullHits
	}
	t.faults += rs1.Faults - rs0.Faults
	t.evictions += rs1.Evictions - rs0.Evictions
	return resp, nil
}

func (e *env) residency() store.ResidencyStats {
	if r := e.st.Residency(); r != nil {
		return r.Stats()
	}
	return store.ResidencyStats{}
}

// query replays a polygon or rect query through the store's partial
// API and checks the decomposition's answer against the handler's.
func (t *tracer) query(o *op, root, id int, want result) error {
	d := t.e.d
	s := t.begin("plan", root, id)
	var plan store.Plan
	if o.poly != nil {
		plan = d.PlanCover(o.poly, o.maxErr)
	} else {
		plan = d.PlanCoverRect(*o.rect, o.maxErr)
	}
	t.end(s)

	s = t.begin("cover", root, id)
	var cov *cover.Covering
	if o.poly != nil {
		cov = t.coverer(plan.Level).Cover(o.poly)
	} else {
		cov = t.coverer(plan.Level).CoverRect(*o.rect)
	}
	t.end(s)
	if !slices.Equal(cov.Cells, plan.Cover) {
		return fmt.Errorf("replica coverer at level %d disagrees with PlanCover (%d vs %d cells)", plan.Level, len(cov.Cells), len(plan.Cover))
	}
	t.cells = append(t.cells, int64(len(cov.Cells)))
	t.coveredCells += len(cov.Cells)
	for _, in := range cov.Interior {
		if in {
			t.interiorCells++
		}
	}

	s = t.begin("route", root, id)
	subs := d.ShardSubs(plan.Cover)
	t.end(s)
	t.shards += len(subs)
	t.queries++
	t.deltaRows += d.DeltaRows()
	if len(subs) == 0 {
		// A covering that misses every shard: the store answers it with
		// an empty partial of the first shard.
		subs = []store.ShardSub{{Cell: d.ShardCells()[0]}}
	}
	opts := geoblocks.QueryOptions{MaxError: o.maxErr}
	accs := make([]*geoblocks.Accumulator, len(subs))
	for i, sub := range subs {
		s = t.begin("select", root, id)
		acc, err := d.ShardPartial(sub.Cell, sub.Sub, plan.Level, opts, t.reqs)
		t.end(s)
		if err != nil {
			return err
		}
		accs[i] = acc
	}
	s = t.begin("merge", root, id)
	total := accs[0]
	for _, acc := range accs[1:] {
		if err := total.MergeFrom(acc); err != nil {
			return err
		}
	}
	res := total.Result()
	t.end(s)
	t.e.checked["traced_vs_handler"]++
	if got := wire(res); !sameBits(got, want) {
		return fmt.Errorf("traced decomposition answered %+v, handler %+v", got, want)
	}
	return nil
}

// join replays a join as PlanJoin then Join (JoinRects for windows) and
// checks every region against the handler's answer.
func (t *tracer) join(o *op, root, id int, want []result) error {
	d := t.e.d
	polys := o.polys
	if polys == nil {
		polys = make([]*geom.Polygon, len(o.tiles))
		for i, r := range o.tiles {
			polys[i] = r.Polygon()
		}
	}
	s := t.begin("join.plan", root, id)
	_, js := d.PlanJoin(polys, o.maxErr)
	t.end(s)
	t.joinInterior += js.InteriorPairs
	t.joinBoundary += js.BoundaryPairs
	t.joinFallbacks += js.Fallbacks

	opts := geoblocks.QueryOptions{MaxError: o.maxErr}
	s = t.begin("join.exec", root, id)
	var res []geoblocks.Result
	var err error
	if o.polys != nil {
		res, _, err = d.Join(o.polys, opts, t.reqs...)
	} else {
		res, _, err = d.JoinRects(o.tiles, opts, t.reqs...)
	}
	t.end(s)
	if err != nil {
		return err
	}
	t.e.checked["traced_vs_handler"]++
	for i := range res {
		if got := wire(res[i]); !sameBits(got, want[i]) {
			return fmt.Errorf("traced join region %d answered %+v, handler %+v", i, got, want[i])
		}
	}
	return nil
}

func (t *tracer) ingest(o *op, root, id int) (response, error) {
	d := t.e.d
	w0 := d.IngestStatsNow().WALBytes
	s := t.begin("ingest.store", root, id)
	_, err := d.Ingest(o.pts, o.cols)
	t.end(s)
	if err != nil {
		return response{}, err
	}
	if w1 := d.IngestStatsNow().WALBytes; w1 > w0 {
		t.walBytes += w1 - w0
	}
	t.ingestedRows += int64(len(o.pts))
	t.e.orc.acked = append(t.e.orc.acked, o.pts...)
	return response{Rows: len(o.pts)}, nil
}

func (t *tracer) compact(root, id int) (response, error) {
	s := t.begin("compact", root, id)
	cs, err := t.e.d.Compact()
	t.end(s)
	t.compactRows += cs.Rows
	t.compactMicros += cs.Micros
	return response{}, err
}

func wire(r geoblocks.Result) result {
	out := result{Count: r.Count, Level: r.Level, ErrorBound: jf(r.ErrorBound), Values: make([]jf, len(r.Values))}
	for i, v := range r.Values {
		out.Values[i] = jf(v)
	}
	return out
}

// durations returns each named span's duration and self time (duration
// minus the time its child spans cover), in nanoseconds.
func (t *tracer) durations() (dur, self map[string][]int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	dur, self = map[string][]int64{}, map[string][]int64{}
	for i, s := range t.spans {
		dur[s.Name] = append(dur[s.Name], s.End-s.Start)
		self[s.Name] = append(self[s.Name], s.End-s.Start-child[i])
	}
	return dur, self
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer adds the per-layer metrics: span-derived times from the
// traced phase tp, runtime counters from the untraced phase up (the
// traced phase allocates its own spans), and the tracing overhead.
func (t *tracer) perLayer(rep *report, up, tp *phase, ms0, ms1 runtime.MemStats) {
	dur, self := t.durations()
	const us = 1e3
	rep.pct("httpapi.self_us_p50", self["http"], 0.50, "us", us)
	rep.pct("store.plan_us_p50", dur["plan"], 0.50, "us", us)
	rep.pct("store.route_us_p50", dur["route"], 0.50, "us", us)
	rep.pct("store.merge_us_p50", dur["merge"], 0.50, "us", us)
	rep.add("store.shards_per_query", ratio(float64(t.shards), float64(t.queries)), "count", t.queries)
	rep.add("resultcache.hit_ratio", ratio(float64(t.rcHits), float64(t.rcHits+t.rcMisses)), "ratio", int(t.rcHits+t.rcMisses))
	rep.add("resultcache.stale_misses", float64(t.rcStale), "count", 0)
	rep.add("resultcache.evictions", float64(t.rcEvictions), "count", 0)
	rep.add("resultcache.bytes_mb", float64(t.e.d.ResultCacheStats().Bytes)/(1<<20), "MB", 0)
	rep.pct("cover.us_p50", dur["cover"], 0.50, "us", us)
	rep.pct("cover.us_p99", dur["cover"], 0.99, "us", us)
	rep.pct("cover.cells_p50", t.cells, 0.50, "count", 1)
	rep.add("cover.interior_frac", ratio(float64(t.interiorCells), float64(t.coveredCells)), "ratio", 0)
	rep.add("cover.bound_unmet", float64(t.boundUnmet), "count", 0)
	rep.pct("core.select_us_p50", dur["select"], 0.50, "us", us)
	rep.pct("core.select_us_p99", dur["select"], 0.99, "us", us)
	rep.add("core.delta_rows_mean", ratio(float64(t.deltaRows), float64(t.queries)), "count", t.queries)
	rep.add("aggtrie.probes", float64(t.probes), "count", 0)
	rep.add("aggtrie.full_hit_ratio", ratio(float64(t.fullHits), float64(t.probes)), "ratio", 0)
	rep.pct("join.plan_us_p50", dur["join.plan"], 0.50, "us", us)
	rep.add("join.interior_frac", ratio(float64(t.joinInterior), float64(t.joinInterior+t.joinBoundary)), "ratio", 0)
	rep.add("join.fallbacks", float64(t.joinFallbacks), "count", 0)
	rep.add("residency.faults", float64(t.faults), "count", 0)
	rep.add("residency.evictions", float64(t.evictions), "count", 0)
	rep.add("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(up.attempted), "KB", up.attempted)
	rep.add("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count", 0)
	untraced := float64(up.attempted) / up.active.Seconds()
	traced := float64(tp.attempted) / tp.active.Seconds()
	rep.add("trace.overhead_pct", (untraced/traced-1)*100, "%", tp.attempted)

	// Workload-specific layers: printed, not part of the JSON line
	// (every workload's result line carries the same keys).
	if len(dur["ingest.store"]) > 0 {
		rep.pct("ingest.store_us_p50", dur["ingest.store"], 0.50, "us", us)
		rep.add("ingest.wal_bytes_per_row", ratio(float64(t.walBytes), float64(t.ingestedRows)), "B", int(t.ingestedRows))
	}
	if t.compactMicros > 0 {
		rep.add("compact.rows_per_s", float64(t.compactRows)/(float64(t.compactMicros)/1e6), "1/s", len(dur["compact"]))
	}
	if r := t.e.st.Residency(); r != nil {
		rs := r.Stats()
		rep.add("residency.resident_mb", float64(rs.ResidentBytes)/(1<<20), "MB", 0)
		rep.add("residency.budget_mb", float64(rs.BudgetBytes)/(1<<20), "MB", 0)
		rep.add("snapshot.mapped_mb", float64(rs.MappedBytes)/(1<<20), "MB", 0)
	}
	rep.section("self time per span (traced phase)")
	for _, name := range []string{"request", "http", "store", "plan", "cover", "route", "select", "merge", "join.plan", "join.exec", "ingest.store", "compact"} {
		rep.pct("self."+name+"_us_p50", self[name], 0.50, "us", us)
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
