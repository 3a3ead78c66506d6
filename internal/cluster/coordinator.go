package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// ErrUnknownDataset reports a cluster query naming an unregistered
// dataset.
var ErrUnknownDataset = errors.New("cluster: unknown dataset")

// UnavailableError reports shards whose entire replica chain is
// exhausted: the query is refused rather than answered partially. The
// shard cells carry the per-shard attribution the serving layer returns
// in its typed 503.
type UnavailableError struct {
	Dataset string
	Shards  []cellid.ID
	// Cause is the last underlying replica failure, for logs.
	Cause error
}

func (e *UnavailableError) Error() string {
	toks := make([]string, len(e.Shards))
	for i, c := range e.Shards {
		toks[i] = CellToken(c)
	}
	return fmt.Sprintf("cluster: dataset %q shards unavailable (no live replica): %s (last error: %v)",
		e.Dataset, strings.Join(toks, ", "), e.Cause)
}

// Stats is the coordinator's observable state for /v1/stats and
// /metrics.
type Stats struct {
	Self        string      `json:"self"`
	Epoch       uint64      `json:"epoch"`
	Nodes       int         `json:"nodes"`
	Replication int         `json:"replication"`
	Queries     uint64      `json:"queries"`
	LocalParts  uint64      `json:"local_partials"`
	RemoteCalls uint64      `json:"remote_calls"`
	Unavailable uint64      `json:"unavailable_errors"`
	Reloads     uint64      `json:"assignment_reloads"`
	Peers       []PeerStats `json:"peers"`
}

// Coordinator routes cluster queries: local shards through the store,
// remote shards through peer partial requests, merged in global shard
// order. Safe for concurrent use; Reload may swap the assignment under
// live queries.
type Coordinator struct {
	store *store.Store
	// self is this node's name in the assignment ("" when the
	// coordinator is not itself a data node — then every shard is
	// remote).
	self string

	mu     sync.RWMutex
	assign *Assignment

	client *Client

	queries     atomic.Uint64
	localParts  atomic.Uint64
	remoteCalls atomic.Uint64
	unavailable atomic.Uint64
	reloads     atomic.Uint64
}

// New builds a coordinator over the store from a validated config. self
// names this node in the config (empty for a pure router). The store's
// datasets are stamped with the assignment epoch.
func New(st *store.Store, cfg *Config, self string) (*Coordinator, error) {
	if self != "" {
		found := false
		for _, n := range cfg.Nodes {
			if n.Name == self {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self %q is not in the assignment's node list", self)
		}
	}
	c := &Coordinator{
		store:  st,
		self:   self,
		assign: NewAssignment(cfg),
		client: NewClient(cfg),
	}
	st.SetAssignmentEpoch(cfg.Epoch)
	return c, nil
}

// Reload swaps in a new assignment (SIGHUP on the daemon): placement,
// epoch and client tuning all take effect for subsequent queries;
// in-flight queries finish under the assignment they planned with.
func (c *Coordinator) Reload(cfg *Config) error {
	if c.self != "" {
		found := false
		for _, n := range cfg.Nodes {
			if n.Name == c.self {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cluster: reload drops self %q from the node list", c.self)
		}
	}
	a := NewAssignment(cfg)
	c.mu.Lock()
	c.assign = a
	c.mu.Unlock()
	c.client.Retune(cfg)
	c.store.SetAssignmentEpoch(cfg.Epoch)
	c.reloads.Add(1)
	return nil
}

// Assignment returns the current assignment.
func (c *Coordinator) Assignment() *Assignment {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.assign
}

// Self returns this node's assignment name.
func (c *Coordinator) Self() string { return c.self }

// Epoch returns the current assignment epoch.
func (c *Coordinator) Epoch() uint64 { return c.Assignment().Epoch() }

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	a := c.Assignment()
	return Stats{
		Self:        c.self,
		Epoch:       a.Epoch(),
		Nodes:       len(a.Config().Nodes),
		Replication: a.Replication(),
		Queries:     c.queries.Load(),
		LocalParts:  c.localParts.Load(),
		RemoteCalls: c.remoteCalls.Load(),
		Unavailable: c.unavailable.Load(),
		Reloads:     c.reloads.Load(),
		Peers:       c.client.Stats(),
	}
}

// Query answers a polygon query cluster-wide.
func (c *Coordinator) Query(ctx context.Context, name string, poly *geom.Polygon, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (geoblocks.Result, error) {
	if err := opts.Validate(); err != nil {
		return geoblocks.Result{}, err
	}
	d, ok := c.store.Get(name)
	if !ok {
		return geoblocks.Result{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	plan := d.PlanCover(poly, opts.MaxError)
	return c.execute(ctx, d, name, plan, opts, reqs)
}

// QueryRect answers a rectangle query cluster-wide.
func (c *Coordinator) QueryRect(ctx context.Context, name string, r geom.Rect, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (geoblocks.Result, error) {
	if err := opts.Validate(); err != nil {
		return geoblocks.Result{}, err
	}
	d, ok := c.store.Get(name)
	if !ok {
		return geoblocks.Result{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	plan := d.PlanCoverRect(r, opts.MaxError)
	return c.execute(ctx, d, name, plan, opts, reqs)
}

// Join answers a polygon join cluster-wide: the shared-grid plan is
// computed once on the coordinator's copy of the dataset (one level, one
// classification pass — PlanJoin), then each polygon's planned covering
// scatters through the same per-shard partial machinery as a single
// query, concurrently across polygons. Because each polygon's partials
// merge in ascending shard order, per-polygon answers are bit-identical
// to the single-node Join (and hence to N sequential queries) for
// COUNT/MIN/MAX.
func (c *Coordinator) Join(ctx context.Context, name string, polys []*geom.Polygon, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) ([]geoblocks.Result, store.JoinStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, store.JoinStats{}, err
	}
	d, ok := c.store.Get(name)
	if !ok {
		return nil, store.JoinStats{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	plans, stats := d.PlanJoin(polys, opts.MaxError)
	results := make([]geoblocks.Result, len(polys))
	errs := make([]error, len(polys))
	var wg sync.WaitGroup
	for i := range polys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.execute(ctx, d, name, plans[i], opts, reqs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	return results, stats, nil
}

// remoteGroup batches the shards of one replica chain into one partial
// request.
type remoteGroup struct {
	chain []Node
	subs  []store.ShardSub
}

// execute runs one planned query: split the covering per shard, answer
// local shards in process and remote shards via peer partial requests,
// then merge everything in ascending shard-cell order — the exact merge
// tree of a single-node query over the same covering, which is what
// keeps COUNT/MIN/MAX bit-identical across deployments.
func (c *Coordinator) execute(ctx context.Context, d *store.Dataset, name string, plan store.Plan, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (geoblocks.Result, error) {
	c.queries.Add(1)
	d.NoteQuery()
	assign := c.Assignment()

	subs := d.ShardSubs(plan.Cover)
	if len(subs) == 0 {
		// Identity: resolve specs and finalise against any local shard,
		// exactly like the single-node router's empty-route path.
		acc, err := d.ShardPartial(d.ShardCells()[0], nil, plan.Level, opts, reqs)
		if err != nil {
			return geoblocks.Result{}, err
		}
		res := acc.Result()
		res.Level = plan.Level
		res.ErrorBound = plan.ErrorBound
		return res, nil
	}

	var local []store.ShardSub
	groups := make(map[string]*remoteGroup)
	for _, sub := range subs {
		chain := assign.Owners(sub.Cell)
		if c.owns(chain) {
			local = append(local, sub)
			continue
		}
		key := chainKey(chain)
		g, ok := groups[key]
		if !ok {
			g = &remoteGroup{chain: chain}
			groups[key] = g
		}
		g.subs = append(g.subs, sub)
	}

	// Scatter: local partials and remote groups all run concurrently.
	partials := make(map[cellid.ID]*geoblocks.Accumulator, len(subs))
	var pmu sync.Mutex
	var wg sync.WaitGroup
	var localErr error
	var unavailable []cellid.ID
	var lastCause error

	for _, sub := range local {
		wg.Add(1)
		go func(sub store.ShardSub) {
			defer wg.Done()
			c.localParts.Add(1)
			acc, err := d.ShardPartial(sub.Cell, sub.Sub, plan.Level, opts, reqs)
			pmu.Lock()
			defer pmu.Unlock()
			if err != nil {
				if localErr == nil {
					localErr = err
				}
				return
			}
			partials[sub.Cell] = acc
		}(sub)
	}
	for _, g := range groups {
		wg.Add(1)
		go func(g *remoteGroup) {
			defer wg.Done()
			c.remoteCalls.Add(1)
			accs, err := c.fetchGroup(ctx, d, name, assign, plan, opts, reqs, g)
			pmu.Lock()
			defer pmu.Unlock()
			if err != nil {
				for _, sub := range g.subs {
					unavailable = append(unavailable, sub.Cell)
				}
				lastCause = err
				return
			}
			for cell, acc := range accs {
				partials[cell] = acc
			}
		}(g)
	}
	wg.Wait()

	if localErr != nil {
		return geoblocks.Result{}, localErr
	}
	if len(unavailable) > 0 {
		c.unavailable.Add(1)
		sort.Slice(unavailable, func(i, j int) bool { return unavailable[i] < unavailable[j] })
		return geoblocks.Result{}, &UnavailableError{Dataset: name, Shards: unavailable, Cause: lastCause}
	}

	// Gather: merge in ascending shard order (subs is already sorted —
	// ShardSubs walks the shard slice in order).
	total := partials[subs[0].Cell]
	for _, sub := range subs[1:] {
		if err := total.MergeFrom(partials[sub.Cell]); err != nil {
			return geoblocks.Result{}, err
		}
	}
	res := total.Result()
	res.Level = plan.Level
	res.ErrorBound = plan.ErrorBound
	return res, nil
}

// owns reports whether this node is anywhere in the replica chain — if
// so the shard is answered locally (never an RPC to self).
func (c *Coordinator) owns(chain []Node) bool {
	if c.self == "" {
		return false
	}
	for _, n := range chain {
		if n.Name == c.self {
			return true
		}
	}
	return false
}

func chainKey(chain []Node) string {
	names := make([]string, len(chain))
	for i, n := range chain {
		names[i] = n.Name
	}
	return strings.Join(names, ",")
}

// fetchGroup sends one replica-chain group's shards to its peers and
// decodes the winning response into per-shard accumulators. Decode
// validates the envelope (dataset, epoch, level, exact shard echo)
// before parsing frames, so a confused peer counts as a failed replica
// rather than contaminating the merge.
func (c *Coordinator) fetchGroup(ctx context.Context, d *store.Dataset, name string, assign *Assignment, plan store.Plan, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest, g *remoteGroup) (map[cellid.ID]*geoblocks.Accumulator, error) {
	req := &PartialRequest{
		Dataset:      name,
		CodecVersion: CodecVersion,
		Epoch:        assign.Epoch(),
		Level:        plan.Level,
		Aggs:         AggsFromRequests(reqs),
		Shards:       make([]ShardReq, len(g.subs)),
		NoCache:      opts.DisableCache,
	}
	for i, sub := range g.subs {
		req.Shards[i] = ShardReq{Cell: CellToken(sub.Cell), Cover: EncodeCells(sub.Sub)}
	}
	decode := func(pr *PartialResponse) (any, error) {
		if pr.Dataset != name {
			return nil, fmt.Errorf("peer answered for dataset %q, asked %q", pr.Dataset, name)
		}
		if pr.Epoch != req.Epoch {
			return nil, fmt.Errorf("peer answered under epoch %d, asked %d", pr.Epoch, req.Epoch)
		}
		if pr.Level != plan.Level {
			return nil, fmt.Errorf("peer answered at level %d, asked %d", pr.Level, plan.Level)
		}
		if len(pr.Shards) != len(g.subs) {
			return nil, fmt.Errorf("peer answered %d shards, asked %d", len(pr.Shards), len(g.subs))
		}
		accs := make(map[cellid.ID]*geoblocks.Accumulator, len(pr.Shards))
		for i, sp := range pr.Shards {
			if sp.Cell != req.Shards[i].Cell {
				return nil, fmt.Errorf("peer shard %d is %s, asked %s", i, sp.Cell, req.Shards[i].Cell)
			}
			acc, err := d.DecodePartial(sp.Partial, reqs)
			if err != nil {
				return nil, fmt.Errorf("shard %s partial: %w", sp.Cell, err)
			}
			accs[g.subs[i].Cell] = acc
		}
		return accs, nil
	}
	val, err := c.client.Fetch(ctx, g.chain, req, decode)
	if err != nil {
		return nil, err
	}
	return val.(map[cellid.ID]*geoblocks.Accumulator), nil
}
