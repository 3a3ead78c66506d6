package main

import (
	"fmt"
	"time"

	"geoblocks/internal/geom"
)

// Check sampling: every checkEvery-th query of a phase is held against
// the oracle envelope after the window; every join gets joinChecks of
// its regions compared with the single-query path.
const (
	checkEvery      = 4
	joinChecks      = 4
	liveJoinEvery   = 10 // live checks joins inline (state moves on)
	dashKeyChecks   = 150
	dashMaxResends  = 3
	inlineTileCheck = 2
)

// phase is one measured window: latency samples in nanoseconds per
// request type, counts, and the checks its answers still owe.
type phase struct {
	e                            *env
	query, join, ingest, compact []int64
	attempted, failed            int
	rounds                       int
	active                       time.Duration // window minus check pauses
	rssPeak                      int64
	deferred                     []deferredCheck
	failedOps                    map[int]bool
	problems                     []string
	seen                         map[string]*seenReq // dashboard: first answer per distinct request
	seenOrder                    []string
	joinsSeen                    int
	// cache and residency counters across the window
	hits, misses, faults, evictions uint64
}

type deferredCheck struct {
	id int
	fn func() error
}

type seenReq struct {
	id   int
	op   op
	resp response
}

func (p *phase) fail(id int, err error) {
	if !p.failedOps[id] {
		p.failedOps[id] = true
		p.failed++
	}
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf("%s op %d: %v", p.e.name, id, err))
	}
}

// exec sends one operation untraced. Acknowledged ingest rows join the
// oracle's row set in acknowledgement order.
func (e *env) exec(o *op) (response, time.Duration, error) {
	resp, dt, err := serve(e.h, o)
	if err == nil && o.kind == opIngest {
		if resp.Rows != len(o.pts) {
			return resp, dt, fmt.Errorf("ingest acknowledged %d rows, sent %d", resp.Rows, len(o.pts))
		}
		e.orc.acked = append(e.orc.acked, o.pts...)
	}
	return resp, dt, err
}

// measure runs whole rounds from round start until the window's active
// time is spent. tr == nil is the untraced run.
func measure(e *env, start int, window time.Duration, tr *tracer) *phase {
	p := &phase{e: e, failedOps: map[int]bool{}, seen: map[string]*seenReq{}}
	rc0, rs0 := *e.d.ResultCacheStats(), e.residency()
	defer func() {
		rc1, rs1 := *e.d.ResultCacheStats(), e.residency()
		p.hits, p.misses = rc1.Hits-rc0.Hits, rc1.Misses-rc0.Misses
		p.faults, p.evictions = rs1.Faults-rs0.Faults, rs1.Evictions-rs0.Evictions
	}()
	t0 := time.Now()
	var paused time.Duration
	for r := start; ; r++ {
		pt := time.Now()
		ops := e.round(r)
		paused += time.Since(pt)
		for i := range ops {
			o := &ops[i]
			id := p.attempted
			p.attempted++
			var resp response
			var dt time.Duration
			var err error
			if tr != nil {
				resp, err = tr.exec(o, id)
			} else {
				resp, dt, err = e.exec(o)
			}
			if err != nil {
				p.fail(id, err)
				continue
			}
			if tr == nil {
				switch o.kind {
				case opQuery:
					p.query = append(p.query, dt.Nanoseconds())
				case opJoin:
					p.join = append(p.join, dt.Nanoseconds())
				case opIngest:
					p.ingest = append(p.ingest, dt.Nanoseconds())
				case opCompact:
					p.compact = append(p.compact, dt.Nanoseconds())
				}
			}
			ct := time.Now()
			p.afterOp(id, o, resp)
			paused += time.Since(ct)
		}
		p.rounds++
		ct := time.Now()
		if rss := rssBytes(); rss > p.rssPeak {
			p.rssPeak = rss
		}
		paused += time.Since(ct)
		if time.Since(t0)-paused >= window {
			break
		}
	}
	p.active = time.Since(t0) - paused
	return p
}

// afterOp runs the checks that must see the state the answer was made
// in, and schedules the rest for after the window.
func (p *phase) afterOp(id int, o *op, resp response) {
	e := p.e
	switch o.kind {
	case opQuery:
		if resp.Result == nil {
			p.fail(id, fmt.Errorf("query answered without a result"))
			return
		}
		res := *resp.Result
		if o.wholeBound {
			// Read-your-writes: base rows plus every acknowledged row.
			e.checked["read_your_writes"]++
			if want := e.orc.total(len(e.orc.acked)); res.Count != want {
				p.fail(id, fmt.Errorf("whole-bound COUNT %d, want %d base+acked rows", res.Count, want))
			}
			return
		}
		if e.name == "dashboard" {
			p.remember(id, o, resp)
			return
		}
		if id%checkEvery == 0 {
			ring, acked := o.ring(), len(e.orc.acked)
			p.deferred = append(p.deferred, deferredCheck{id, func() error {
				return e.checkEnvelope(ring, res, acked)
			}})
		}
	case opJoin:
		n := len(o.polys) + len(o.tiles)
		if len(resp.Results) != n {
			p.fail(id, fmt.Errorf("join answered %d results for %d regions", len(resp.Results), n))
			return
		}
		p.joinsSeen++
		switch {
		case e.name == "dashboard":
			p.remember(id, o, resp)
		case e.name == "live":
			// The data moves on with the next ack: compare with the
			// single-query path now, off the clock.
			if p.joinsSeen%liveJoinEvery == 0 {
				for k := 0; k < inlineTileCheck; k++ {
					i := (id + k*n/inlineTileCheck) % n
					if err := e.checkJoinRegion(o, i, resp.Results[i], len(e.orc.acked)); err != nil {
						p.fail(id, err)
					}
				}
			}
		default:
			cp := *o
			p.deferred = append(p.deferred, deferredCheck{id, func() error {
				for k := 0; k < joinChecks; k++ {
					i := (id + k*n/joinChecks) % n
					if err := e.checkJoinRegion(&cp, i, resp.Results[i], 0); err != nil {
						return err
					}
				}
				return nil
			}})
		}
	}
}

func (p *phase) remember(id int, o *op, resp response) {
	key := string(o.body)
	if _, ok := p.seen[key]; ok {
		return
	}
	p.seen[key] = &seenReq{id: id, op: *o, resp: resp}
	p.seenOrder = append(p.seenOrder, key)
}

// runChecks runs the deferred checks, then (dashboard) the cache
// transparency checks over the distinct requests the window sent.
func (p *phase) runChecks() {
	for _, c := range p.deferred {
		if err := c.fn(); err != nil {
			p.fail(c.id, err)
		}
	}
	p.deferred = nil
	var joins, polys int
	for _, key := range p.seenOrder {
		s := p.seen[key]
		if s.op.kind == opJoin {
			if joins >= dashWindows {
				continue
			}
			joins++
		} else {
			if polys >= dashKeyChecks {
				continue
			}
			polys++
		}
		if err := p.e.checkCacheTransparency(s); err != nil {
			p.fail(s.id, err)
		}
	}
}

// checkEnvelope holds one answer to the oracle: the exact count of rows
// inside the region <= COUNT <= the count within the reported error
// bound of it.
func (e *env) checkEnvelope(ring []geom.Point, res result, acked int) error {
	e.checked["oracle_envelope"]++
	lo, hi := e.orc.envelope(ring, float64(res.ErrorBound), acked)
	if res.Count < lo || res.Count > hi {
		return fmt.Errorf("COUNT %d outside oracle envelope [%d, %d] (error bound %g)", res.Count, lo, hi, float64(res.ErrorBound))
	}
	return nil
}

// checkJoinRegion compares region i of a join with the same region sent
// alone (no_cache, same max_error) and holds it to the oracle envelope.
func (e *env) checkJoinRegion(o *op, i int, got result, acked int) error {
	var single op
	if o.polys != nil {
		single = queryPoly(o.polys[i], o.maxErr)
	} else {
		single = queryRect(o.tiles[i], o.maxErr)
	}
	single = withNoCache(single)
	e.checked["join_vs_single"]++
	resp, _, err := serve(e.h, &single)
	if err != nil {
		return err
	}
	if !sameBits(got, *resp.Result) {
		return fmt.Errorf("join region %d answered %+v, single query %+v", i, got, *resp.Result)
	}
	return e.checkEnvelope(single.ring(), got, acked)
}

func withNoCache(o op) op {
	o.body = append(o.body[:len(o.body)-1:len(o.body)-1], []byte(`,"no_cache":true}`)...)
	return o
}

// checkCacheTransparency resends a dashboard request until the result
// cache answers it (a hit, read from the cache's counters), and checks
// the hit against the first answer and against the no_cache answer.
func (e *env) checkCacheTransparency(s *seenReq) error {
	var hit response
	found := false
	for k := 0; k < dashMaxResends && !found; k++ {
		before := e.d.ResultCacheStats().Hits
		resp, _, err := serve(e.h, &s.op)
		if err != nil {
			return err
		}
		if s.op.kind == opJoin {
			// A window join of n tiles is all hits when every tile hits.
			found = e.d.ResultCacheStats().Hits-before == uint64(len(s.op.tiles))
		} else {
			found = e.d.ResultCacheStats().Hits-before == 1
		}
		hit = resp
	}
	if found {
		e.checked["cache_hit_vs_no_cache"]++
	}
	nc := withNoCache(s.op)
	fresh, _, err := serve(e.h, &nc)
	if err != nil {
		return err
	}
	first, cached, uncached := answers(s.resp), answers(hit), answers(fresh)
	for i := range first {
		if !sameBits(first[i], cached[i]) || !sameBits(cached[i], uncached[i]) {
			return fmt.Errorf("region %d: first %+v, repeat (hit=%v) %+v, no_cache %+v", i, first[i], found, cached[i], uncached[i])
		}
	}
	if s.op.kind == opQuery {
		return e.checkEnvelope(s.op.ring(), first[0], 0)
	}
	for k := 0; k < joinChecks; k++ {
		i := (s.id + k*len(first)/joinChecks) % len(first)
		if err := e.checkJoinRegion(&s.op, i, first[i], 0); err != nil {
			return err
		}
	}
	return nil
}

func answers(r response) []result {
	if r.Result != nil {
		return []result{*r.Result}
	}
	return r.Results
}

// endToEnd adds the untraced phase's user-visible metrics.
func (p *phase) endToEnd(rep *report) {
	rep.add("ops_per_s", float64(p.attempted)/p.active.Seconds(), "1/s", p.attempted)
	rep.pct("query_p50_ms", p.query, 0.50, "ms", 1e6)
	rep.pct("query_p99_ms", p.query, 0.99, "ms", 1e6)
	rep.pct("join_p50_ms", p.join, 0.50, "ms", 1e6)
	rep.pct("join_p95_ms", p.join, 0.95, "ms", 1e6)
	rep.pct("ingest_p50_ms", p.ingest, 0.50, "ms", 1e6)
	rep.pct("ingest_p99_ms", p.ingest, 0.99, "ms", 1e6)
	rep.pct("compact_p50_ms", p.compact, 0.50, "ms", 1e6)
	if len(p.compact) > 0 && len(p.compact) < 20 {
		// Too few folds for a percentile: report the median with its n.
		c := make([]float64, len(p.compact))
		for i, v := range p.compact {
			c[i] = float64(v) / 1e6
		}
		rep.add("compact_median_ms", median(c), "ms", len(c))
	}
	rep.add("rss_peak_mb", float64(p.rssPeak)/(1<<20), "MB", p.rounds)
	rep.add("rounds", float64(p.rounds), "count", 0)
	rep.add("window.resultcache.hit_ratio", ratio(float64(p.hits), float64(p.hits+p.misses)), "ratio", int(p.hits+p.misses))
	rep.add("window.residency.faults", float64(p.faults), "count", 0)
	rep.add("window.residency.evictions", float64(p.evictions), "count", 0)
}
