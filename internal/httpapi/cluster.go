package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/cluster"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// This file is the serving half of cluster mode: the internal
// partial-query endpoint peers answer (POST /internal/v1/partial) and
// the coordinator-routed /v1/query path. Validation on the partial
// endpoint is strict and typed — a peer that cannot answer exactly what
// was asked must say so in a machine-readable way, because the
// coordinator's merge correctness depends on every shard answering its
// precise sub-covering at the planned level under the agreed
// assignment epoch.

// handlePartial answers a peer partial request: one serialized
// accumulator per requested shard, computed by the same shardPartial
// kernel as local queries (pyramid level block, then the ingest delta,
// in fixed order).
func (s *server) handlePartial(w http.ResponseWriter, r *http.Request) {
	s.reqPartial.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req cluster.PartialRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "malformed request body: %v", err)
		return
	}
	if req.CodecVersion != cluster.CodecVersion {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeCodecMismatch, nil,
			"partial codec version %d (this node speaks %d)", req.CodecVersion, cluster.CodecVersion)
		return
	}
	if req.Dataset == "" {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "missing dataset")
		return
	}
	d, ok := s.store.Get(req.Dataset)
	if !ok {
		writeTypedError(w, http.StatusNotFound, cluster.CodeUnknownDataset, nil, "unknown dataset %q", req.Dataset)
		return
	}
	// Epoch agreement: a request planned under a different assignment
	// generation may scatter shards differently than this node expects;
	// refuse it so a half-rolled-out assignment change fails loudly.
	if epoch := s.cfg.Cluster.Epoch(); req.Epoch != epoch {
		writeTypedError(w, http.StatusConflict, cluster.CodeStaleEpoch, nil,
			"request assignment epoch %d, this node serves epoch %d", req.Epoch, epoch)
		return
	}
	if len(req.Aggs) == 0 {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "missing aggs")
		return
	}
	reqs := make([]geoblocks.AggRequest, len(req.Aggs))
	for i, a := range req.Aggs {
		ar, err := a.ToRequest()
		if err != nil {
			writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "aggs[%d]: %v", i, err)
			return
		}
		reqs[i] = ar
	}
	if !d.ServesLevel(req.Level) {
		writeTypedError(w, http.StatusUnprocessableEntity, cluster.CodeBadLevel, nil,
			"dataset %q serves no grid level %d", req.Dataset, req.Level)
		return
	}
	if len(req.Shards) == 0 {
		writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "missing shards")
		return
	}
	type unit struct {
		cell cellid.ID
		sub  []cellid.ID
	}
	units := make([]unit, len(req.Shards))
	for i, sh := range req.Shards {
		cell, err := cluster.ParseCell(sh.Cell)
		if err != nil {
			writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "shards[%d]: %v", i, err)
			return
		}
		if !d.HasShard(cell) {
			writeTypedError(w, http.StatusUnprocessableEntity, cluster.CodeUnknownShard, []string{sh.Cell},
				"dataset %q has no shard %s", req.Dataset, sh.Cell)
			return
		}
		sub, err := cluster.DecodeCells(sh.Cover)
		if err != nil {
			writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "shards[%d] cover: %v", i, err)
			return
		}
		// The accumulator kernel assumes no covering cell finer than the
		// executing grid level.
		for _, c := range sub {
			if c.Level() > req.Level {
				writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil,
					"shards[%d] cover cell %s is finer than level %d", i, cluster.CellToken(c), req.Level)
				return
			}
		}
		units[i] = unit{cell: cell, sub: sub}
	}

	opts := geoblocks.QueryOptions{DisableCache: req.NoCache}
	resp := cluster.PartialResponse{
		Dataset: req.Dataset,
		Epoch:   req.Epoch,
		Level:   req.Level,
		Shards:  make([]cluster.ShardPartialResp, len(units)),
	}
	var allCells []cellid.ID
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i, u := range units {
		allCells = append(allCells, u.sub...)
		wg.Add(1)
		go func(i int, u unit) {
			defer wg.Done()
			acc, err := d.ShardPartial(u.cell, u.sub, req.Level, opts, reqs)
			if err != nil {
				errs[i] = err
				return
			}
			resp.Shards[i] = cluster.ShardPartialResp{Cell: req.Shards[i].Cell, Partial: acc.EncodePartial()}
		}(i, u)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			switch {
			case errors.Is(err, store.ErrUnknownShard):
				writeTypedError(w, http.StatusUnprocessableEntity, cluster.CodeUnknownShard,
					[]string{req.Shards[i].Cell}, "shards[%d]: %v", i, err)
			case errors.Is(err, geoblocks.ErrUnknownColumn):
				writeTypedError(w, http.StatusBadRequest, cluster.CodeBadRequest, nil, "shards[%d]: %v", i, err)
			default:
				writeError(w, http.StatusInternalServerError, "shards[%d]: %v", i, err)
			}
			return
		}
	}
	resp.ErrorBound = d.CoveringBound(allCells)
	writeJSON(w, http.StatusOK, resp)
}

// clusterErrStatus maps a coordinator query error onto a typed HTTP
// answer.
func clusterErrStatus(w http.ResponseWriter, err error) {
	var ue *cluster.UnavailableError
	switch {
	case errors.As(err, &ue):
		toks := make([]string, len(ue.Shards))
		for i, c := range ue.Shards {
			toks[i] = cluster.CellToken(c)
		}
		writeTypedError(w, http.StatusServiceUnavailable, cluster.CodeUnavailable, toks,
			"query: %v", err)
	case errors.Is(err, cluster.ErrUnknownDataset):
		writeTypedError(w, http.StatusNotFound, cluster.CodeUnknownDataset, nil, "query: %v", err)
	case errors.Is(err, geoblocks.ErrUnknownColumn):
		writeError(w, http.StatusBadRequest, "query: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "query: %v", err)
	}
}

// handleClusterQuery is handleQuery's cluster-mode tail: the request is
// already validated and parsed; route it through the coordinator's
// scatter-gather instead of the local-only router.
func (s *server) handleClusterQuery(w http.ResponseWriter, r *http.Request, req queryRequest, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) {
	co := s.cfg.Cluster
	ctx := r.Context()
	start := time.Now()
	resp := queryResponse{Dataset: req.Dataset}
	switch {
	case req.Polygon != nil:
		poly, err := parseRing(req.Polygon)
		if err != nil {
			writeError(w, http.StatusBadRequest, "polygon: %v", err)
			return
		}
		res, err := co.Query(ctx, req.Dataset, poly, opts, reqs)
		if err != nil {
			clusterErrStatus(w, err)
			return
		}
		rj := toResultJSON(res)
		resp.Result = &rj
	case req.Rect != nil:
		rc := geom.Rect{Min: geom.Pt(req.Rect[0], req.Rect[1]), Max: geom.Pt(req.Rect[2], req.Rect[3])}
		if !rc.IsValid() {
			writeError(w, http.StatusBadRequest, "rect: min exceeds max")
			return
		}
		res, err := co.QueryRect(ctx, req.Dataset, rc, opts, reqs)
		if err != nil {
			clusterErrStatus(w, err)
			return
		}
		rj := toResultJSON(res)
		resp.Result = &rj
	default:
		polys, err := parseRings(req.Polygons)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		results, _, err := co.Join(ctx, req.Dataset, polys, opts, reqs)
		if err != nil {
			clusterErrStatus(w, err)
			return
		}
		resp.Results = make([]resultJSON, len(results))
		for i, res := range results {
			resp.Results[i] = toResultJSON(res)
		}
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}
