package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"gorder/internal/fair"
	"gorder/internal/query"
	"gorder/internal/registry"
)

// The query endpoints: POST /query and POST /query/batch execute
// registry kernels against stored graphs through the
// internal/query executor. Queries are reads — they run on the HTTP
// goroutine behind their own concurrency gate and never enter the
// compute worker pool, so a long ordering job can saturate every
// worker without adding a microsecond to query latency.

// Query-path defaults when Config leaves the knobs zero.
const (
	defaultQueryConcurrency = 8
	defaultQueryTimeout     = 30 * time.Second
)

// queryWaitCap is each tenant's query waiting room: waiters beyond it
// are rejected with 429.
const queryWaitCap = 64

// initQuery builds the executor, the weighted-fair read gate, and the
// metrics; called from New. The gate admits queries in per-tenant
// stride order (internal/fair.Gate), so a tenant flooding the read
// path cannot push another tenant's queries past one weighted round;
// each tenant's waiting room is capped at queryWaitCap → 429, so
// overload degrades into fast rejections instead of a convoy.
func (s *Server) initQuery(m *Metrics) {
	s.Query = query.New(query.Config{
		Source:       s.cfg.Store,
		Store:        s.cfg.Store,
		ResultBudget: s.cfg.QueryResultBudget,
		Workers:      s.cfg.KernelWorkers,
	})
	conc := s.cfg.QueryConcurrency
	if conc <= 0 {
		conc = defaultQueryConcurrency
	}
	s.queryConc = conc
	s.qgate = fair.NewGate(conc, queryWaitCap, s.cfg.TenantWeights)
	s.querySvc = fair.NewEWMA(0.2)

	s.queryRequests = m.Counter("query_requests_total")
	s.queryErrors = m.Counter("query_errors_total")
	s.queryRejected = m.Counter("query_rejected_total")
	s.queryBatches = m.Counter("query_batch_total")
	s.queryMS = m.Counter("query_ms_total")
	m.Func("query_cache_hits_total", s.Query.CacheHits)
	m.Func("query_cache_misses_total", s.Query.CacheMisses)
	m.Func("query_materialized_hits_total", s.Query.MaterializedHits)
	m.Func("query_materialize_fails_total", s.Query.MaterializeFails)
	m.Func("query_kernel_runs_total", s.Query.KernelRuns)
	m.Func("query_relabel_builds_total", s.Query.RelabelBuilds)
	m.Func("query_relabel_carries_total", s.Query.RelabelCarries)
	m.Func("query_result_cache_bytes", s.Query.ResultCacheBytes)
	m.Func("query_graph_cache_bytes", s.Query.GraphCacheBytes)
	m.Func("query_hub_cache_entries", s.Query.HubCacheEntries)
	// Pre-register one counter per queryable kernel so /metrics shows
	// the full query surface from startup, zeros included.
	s.queryKernel = make(map[string]*Counter)
	for _, name := range registry.QueryableKernelNames() {
		key := strings.ToLower(name)
		s.queryKernel[key] = m.Counter("query_total_" + key)
	}
	m.Func("query_kernel_workers", func() int64 { return int64(s.Query.Workers()) })
}

// queryContext applies the per-request deadline: the request's
// timeout_ms when given, the server default otherwise.
func (s *Server) queryContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.QueryTimeout
	if d <= 0 {
		d = defaultQueryTimeout
	}
	if timeoutMs > 0 && time.Duration(timeoutMs)*time.Millisecond < d {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// writeQueryError maps an executor error onto the uniform envelope.
func (s *Server) writeQueryError(w http.ResponseWriter, qerr *query.Error) {
	s.queryErrors.Inc()
	s.writeError(w, qerr.Status, qerr.Code, "%s", qerr.Message)
}

// admitQuery sheds, then runs the fair gate under the request's
// tenant; a false return means the response is already written.
func (s *Server) admitQuery(w http.ResponseWriter, r *http.Request, ctx context.Context) bool {
	if s.shedQuery(w, ctx) {
		return false
	}
	switch err := s.qgate.Acquire(ctx, tenantOf(r)); {
	case errors.Is(err, fair.ErrWaitersFull):
		s.queryRejected.Inc()
		s.writeError(w, http.StatusTooManyRequests, "query_busy",
			"the query tier is at its concurrency limit; retry later")
		return false
	case err != nil:
		s.queryErrors.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "query_timeout",
			"query deadline exceeded while waiting for a slot")
		return false
	}
	return true
}

// handleQuery serves POST /query: one kernel execution.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	s.queryRequests.Inc()
	var req query.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.queryErrors.Inc()
		s.writeError(w, http.StatusBadRequest, "bad_request", "decoding query: %v", err)
		return
	}
	if req.TimeoutMs < 0 {
		s.queryErrors.Inc()
		s.writeError(w, http.StatusBadRequest, "bad_timeout", "timeout_ms must be >= 0")
		return
	}
	ctx, cancel := s.queryContext(r, req.TimeoutMs)
	defer cancel()
	if !s.admitQuery(w, r, ctx) {
		return
	}
	defer s.qgate.Release()

	start := time.Now()
	resp, qerr := s.Query.Run(ctx, req)
	elapsed := time.Since(start)
	s.queryMS.Add(elapsed.Milliseconds())
	s.querySvc.Observe(float64(elapsed) / float64(time.Millisecond))
	if qerr != nil {
		s.writeQueryError(w, qerr)
		return
	}
	if c, ok := s.queryKernel[strings.ToLower(resp.Kernel)]; ok {
		c.Inc()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// batchRequest is the POST /query/batch body.
type batchRequest struct {
	Queries []query.Request `json:"queries"`
}

// maxBatchBody caps /query/batch bodies: MaxBatch queries of modest
// size fit comfortably.
const maxBatchBody = 1 << 20

// handleQueryBatch serves POST /query/batch: up to query.MaxBatch
// queries whose same-graph members share residency, the relabeled
// graph, and traversal scratch. Items come back positionally; each
// succeeds or fails on its own.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	s.queryRequests.Inc()
	s.queryBatches.Inc()
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.queryErrors.Inc()
		s.writeError(w, http.StatusBadRequest, "bad_request", "decoding batch: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		s.queryErrors.Inc()
		s.writeError(w, http.StatusBadRequest, "empty_batch", "batch has no queries")
		return
	}
	if len(req.Queries) > query.MaxBatch {
		s.queryErrors.Inc()
		s.writeError(w, http.StatusBadRequest, "batch_too_large",
			"batch of %d exceeds the %d-query limit", len(req.Queries), query.MaxBatch)
		return
	}
	ctx, cancel := s.queryContext(r, 0)
	defer cancel()
	if !s.admitQuery(w, r, ctx) {
		return
	}
	defer s.qgate.Release()

	start := time.Now()
	items := s.Query.RunBatch(ctx, req.Queries)
	elapsed := time.Since(start)
	s.queryMS.Add(elapsed.Milliseconds())
	s.querySvc.Observe(float64(elapsed) / float64(time.Millisecond))
	ok := 0
	for _, it := range items {
		if it.Error != nil {
			s.queryErrors.Inc()
			continue
		}
		ok++
		if c, found := s.queryKernel[strings.ToLower(it.Response.Kernel)]; found {
			c.Inc()
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"items": items,
		"ok":    ok,
	})
}
