package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/subgraph"
)

// errEmptyNodes rejects node-level queries with no seeds at the API
// surface (the in-process PredictNodes treats them as free no-ops, but a
// client sending one is malformed).
var errEmptyNodes = errors.New("serve: predict_nodes needs a non-empty \"nodes\" list")

// errTooManyNodes rejects a "nodes" list longer than the vault has nodes:
// no well-formed query needs one (empty already means every label), and
// checking the length first keeps a hostile list from being walked.
var errTooManyNodes = errors.New("serve: more nodes requested than the vault holds")

// errMalformedBody marks a predict request whose body did not decode.
var errMalformedBody = errors.New("serve: malformed request body")

// maxRequestBytes bounds a predict request's body. The largest
// well-formed one is a "nodes" list as long as its vault — an all-labels
// /predict sends none — so 1 MiB (≈ 150 000 six-digit ids) is generous,
// and a client cannot make the decoder buffer more.
const maxRequestBytes = 1 << 20

// APIVault describes one fleet member in the API catalog. JSON tags match
// the wire format the gnnvault CLI has always served.
type APIVault struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Design  string `json:"design"`
	Nodes   int    `json:"nodes"`
	Params  int    `json:"rectifier_params"`
}

// APIConfig wires an API front-end over a MultiServer fleet.
type APIConfig struct {
	// Vaults is the fleet catalog; requests for IDs outside it fail with
	// registry.ErrUnknownVault.
	Vaults []APIVault
	// Features resolves a vault ID to its deployed public feature matrix
	// (the full-graph query input). Required. Return the same matrix the
	// vault has registered (core.Vault.SetCalibrationFeatures): the
	// registered features are the int8 calibration batch and the memo key
	// of the vault's public-half store, so /predict then skips the backbone
	// after the first pass. A vault it resolves to nil fails its
	// full-graph queries with an error.
	Features func(vaultID string) *mat.Matrix
	// NodeQueries reports whether the fleet serves the sampled-subgraph
	// node-query path; when false, PredictNodes fails with
	// registry.ErrNodeQueriesDisabled.
	NodeQueries bool
	// Limit, when non-nil, applies a per-client token-bucket/budget rate
	// limit. Cost is counted in answered labels, so a full-graph query
	// costs the graph size and a node query its seed count — the limiter
	// prices exactly what an extraction adversary consumes.
	Limit *RateLimit
	// Precision labels every request metric with the fleet's serving
	// precision tier ("fp64" or "int8"). Empty defaults to "fp64".
	Precision string
	// Trace, when non-nil, is the flight recorder's span ring; it opens
	// the GET /debug/trace endpoint. The same ring should be wired into
	// the registry (and through it every plan) so query span trees are
	// complete.
	Trace *obs.Ring
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/. Off by
	// default: profiling endpoints on a privacy-focused serving surface
	// are opt-in.
	EnablePprof bool
}

// API is the serving surface shared by every front-end: the HTTP/JSON
// handlers and in-process clients (the privacy harness) call the same
// methods, so an attack driven through either sees byte-identical
// behavior. Client identity exists only at this layer — the worker pool
// below it has no notion of who is asking — which is why the rate limiter
// lives here.
type API struct {
	pool      *scheduler         // the serving core every query is submitted to
	reg       *registry.Registry // non-nil: /stats, /metrics and /vaults carry the registry sections
	shard     *ShardedServer     // non-nil: they carry the per-shard sections, and /readyz the breakers
	cfg       APIConfig
	lim       *limiter
	byID      map[string]*APIVault
	vm        map[string]*vaultMetrics // per-vault endpoint metrics; read-only after NewAPI
	precision string
}

// NewAPI builds the shared serving surface over a running MultiServer and
// its registry.
func NewAPI(srv *MultiServer, reg *registry.Registry, cfg APIConfig) *API {
	return newAPI(srv.scheduler, reg, nil, cfg)
}

// newAPI builds the surface over a server's scheduler; reg and shard switch
// on the optional registry and per-shard sections of the read endpoints.
func newAPI(pool *scheduler, reg *registry.Registry, shard *ShardedServer, cfg APIConfig) *API {
	a := &API{
		pool:      pool,
		reg:       reg,
		shard:     shard,
		cfg:       cfg,
		byID:      make(map[string]*APIVault, len(cfg.Vaults)),
		vm:        make(map[string]*vaultMetrics, len(cfg.Vaults)),
		precision: cfg.Precision,
	}
	if a.precision == "" {
		a.precision = "fp64"
	}
	for i := range cfg.Vaults {
		a.byID[cfg.Vaults[i].ID] = &cfg.Vaults[i]
		a.vm[cfg.Vaults[i].ID] = &vaultMetrics{}
	}
	if cfg.Limit != nil {
		a.lim = newLimiter(*cfg.Limit)
	}
	return a
}

// NewShardedAPI builds the same serving surface over a shard fleet: every
// endpoint, defense and metric behaves as under NewAPI, except that the
// one catalogued vault is served by the ShardedServer's fan-out router
// instead of a registry checkout, /metrics grows the per-shard families
// (halo bytes, per-shard EPC, fan-out latency), and the score surface is
// closed — sharded serving is label-only. There is no registry: residency
// is static (every shard holds its slab for the deployment's lifetime),
// so the scheduler metric families are not emitted.
func NewShardedAPI(srv *ShardedServer, cfg APIConfig) *API {
	return newAPI(srv.scheduler, nil, srv, cfg)
}

// lookup resolves a vault ID and validates the requested node indices.
func (a *API) lookup(vault string, nodes []int) (*APIVault, error) {
	info := a.byID[vault]
	if info == nil {
		return nil, fmt.Errorf("%w: %q", registry.ErrUnknownVault, vault)
	}
	if len(nodes) > info.Nodes {
		return nil, fmt.Errorf("%w: %d of %d", errTooManyNodes, len(nodes), info.Nodes)
	}
	for _, n := range nodes {
		if n < 0 || n >= info.Nodes {
			return nil, fmt.Errorf("%w: node %d outside [0,%d)", core.ErrNodeOutOfRange, n, info.Nodes)
		}
	}
	return info, nil
}

// query is the one body under the four public query methods: look the
// vault up and validate the selection, charge the client one answered
// label per returned entry, submit to the serving core, and — for a
// full-graph query, where nodes selects which answers to return (empty
// means all) — pick the selected entries. node routes the query through
// the sampled subgraph path instead.
func (a *API) query(client, vault string, nodes []int, node, scores bool) ([][]float64, []int, error) {
	info, err := a.lookup(vault, nodes)
	if err != nil {
		return nil, nil, err
	}
	cost := len(nodes)
	switch {
	case node && !a.cfg.NodeQueries:
		return nil, nil, registry.ErrNodeQueriesDisabled
	case node && cost == 0:
		return nil, nil, errEmptyNodes
	case cost == 0:
		cost = info.Nodes
	}
	if a.lim != nil {
		if err := a.lim.allow(client, cost); err != nil {
			return nil, nil, err
		}
	}
	if node {
		return a.pool.submit(vault, nil, nodes, true, scores)
	}
	rows, labels, err := a.pool.submit(vault, a.cfg.Features(vault), nil, false, scores)
	if err != nil {
		return nil, nil, err
	}
	return pick(rows, nodes), pick(labels, nodes), nil
}

// observed runs one query and records its latency and outcome against
// the vault's endpoint metrics.
func (a *API) observed(endpoint, client, vault string, nodes []int, scores bool) ([][]float64, []int, error) {
	start := time.Now()
	rows, labels, err := a.query(client, vault, nodes, endpoint == epPredictNodes, scores)
	a.observeReq(vault, endpoint, start, err)
	return rows, labels, err
}

// Predict answers a full-graph label query: the exact pass over the
// vault's deployed features, with nodes selecting which labels to return
// (empty means all). The client is charged one answered label per
// returned entry.
func (a *API) Predict(client, vault string, nodes []int) ([]int, error) {
	_, labels, err := a.observed(epPredict, client, vault, nodes, false)
	return labels, err
}

// PredictScores is Predict over the defended score surface: one posterior
// row and label per selected node. Fails with ErrScoresDisabled unless
// the fleet exposes scores.
func (a *API) PredictScores(client, vault string, nodes []int) ([][]float64, []int, error) {
	return a.observed(epPredict, client, vault, nodes, true)
}

// PredictNodes answers a node-level label query through the sampled
// subgraph path: per-query cost O(hops × fanout) instead of O(graph).
func (a *API) PredictNodes(client, vault string, nodes []int) ([]int, error) {
	_, labels, err := a.observed(epPredictNodes, client, vault, nodes, false)
	return labels, err
}

// PredictNodesScores is PredictNodes over the defended score surface.
func (a *API) PredictNodesScores(client, vault string, nodes []int) ([][]float64, []int, error) {
	return a.observed(epPredictNodes, client, vault, nodes, true)
}

// pick gathers the selected entries of all, or returns all when no
// selection was made (or there is nothing to select from: a label-only
// query has no score rows).
func pick[T any](all []T, nodes []int) []T {
	if len(nodes) == 0 || all == nil {
		return all
	}
	out := make([]T, len(nodes))
	for i, n := range nodes {
		out[i] = all[n]
	}
	return out
}

// --- HTTP front-end -------------------------------------------------------

// apiRequest is the POST /predict and /predict_nodes payload.
type apiRequest struct {
	// Vault is the fleet member to query, "dataset/design".
	Vault string `json:"vault"`
	// Nodes are the node indices whose answers to return; empty means all
	// for /predict and is rejected for /predict_nodes.
	Nodes []int `json:"nodes"`
	// Scores asks for the defended per-class posterior rows alongside
	// labels. Requires the fleet to expose scores.
	Scores bool `json:"scores"`
}

// apiResponse is the answer to both predict endpoints.
type apiResponse struct {
	Vault     string      `json:"vault"`
	Nodes     []int       `json:"nodes,omitempty"`
	Labels    []int       `json:"labels"`
	Scores    [][]float64 `json:"scores,omitempty"`
	LatencyMS float64     `json:"latency_ms"`
}

// Handler returns the HTTP/JSON front-end over the API:
//
//	POST /predict        {"vault":"cora/parallel","nodes":[0,1],"scores":false} → labels (exact, full-graph)
//	POST /predict_nodes  {"vault":"cora/parallel","nodes":[0,1],"scores":false} → labels (sampled subgraph)
//	GET  /vaults                                                               → fleet catalog
//	GET  /stats                                                                → serving + scheduler + EPC counters
//	GET  /metrics                                                              → Prometheus text exposition
//	GET  /debug/trace?n=K                                                      → last K flight-recorder spans as trees
//	GET  /debug/pprof/                                                         → net/http/pprof (when EnablePprof)
//
// Client identity for rate limiting is the X-Client header when present,
// else the remote address. Throttled clients get 429, score queries
// against a label-only fleet 403, unknown vaults 404, malformed or
// out-of-range queries 400, node queries on a full-graph-only fleet 501.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		a.handlePredict(w, r, epPredict)
	})
	mux.HandleFunc("POST /predict_nodes", func(w http.ResponseWriter, r *http.Request) {
		a.handlePredict(w, r, epPredictNodes)
	})
	mux.HandleFunc("GET /vaults", a.handleVaults)
	mux.HandleFunc("GET /stats", a.handleStats)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /readyz", a.handleReadyz)
	mux.HandleFunc("GET /debug/trace", a.handleTrace)
	if a.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// clientID identifies the caller for rate limiting.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	return r.RemoteAddr
}

// handlePredict decodes one predict request and answers it through the
// given endpoint's label or score query.
func (a *API) handlePredict(w http.ResponseWriter, r *http.Request, endpoint string) {
	var req apiRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		err = fmt.Errorf("%w: %w", errMalformedBody, err)
		httpError(w, httpStatus(err), err)
		return
	}
	start := time.Now()
	resp := apiResponse{Vault: req.Vault, Nodes: req.Nodes}
	var err error
	resp.Scores, resp.Labels, err = a.observed(endpoint, clientID(r), req.Vault, req.Nodes, req.Scores)
	if err != nil {
		httpError(w, httpStatus(err), err)
		return
	}
	resp.LatencyMS = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

func (a *API) handleVaults(w http.ResponseWriter, r *http.Request) {
	type vaultEntry struct {
		APIVault
		Resident   bool   `json:"resident"`
		Workspaces int    `json:"workspaces"`
		Requests   uint64 `json:"requests"`
		Plans      uint64 `json:"plans"`
		Evictions  uint64 `json:"evictions"`
	}
	byID := map[string]registry.VaultStats{}
	if a.reg != nil {
		rst := a.reg.Stats()
		for _, vs := range rst.PerVault {
			byID[vs.ID] = vs
		}
	}
	out := make([]vaultEntry, 0, len(a.cfg.Vaults))
	for _, info := range a.cfg.Vaults {
		vs := byID[info.ID]
		if a.reg == nil {
			// Shard fleet: no scheduler, residency is static for the
			// deployment's lifetime.
			vs.Resident = true
		}
		out = append(out, vaultEntry{
			APIVault:   info,
			Resident:   vs.Resident,
			Workspaces: vs.Workspaces,
			Requests:   vs.Requests,
			Plans:      vs.Plans,
			Evictions:  vs.Evictions,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"vaults": out})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	st := a.pool.Stats()
	resp := map[string]any{
		"serving": map[string]any{
			"requests":       st.Requests,
			"completed":      st.Completed,
			"errors":         st.Errors,
			"batches":        st.Batches,
			"avg_batch":      st.AvgBatch,
			"avg_latency_ms": float64(st.AvgLatency.Microseconds()) / 1e3,
			"max_latency_ms": float64(st.MaxLatency.Microseconds()) / 1e3,
			"p50_latency_ms": float64(st.P50Latency.Microseconds()) / 1e3,
			"p95_latency_ms": float64(st.P95Latency.Microseconds()) / 1e3,
			"p99_latency_ms": float64(st.P99Latency.Microseconds()) / 1e3,
			"spill_bytes":    st.SpillBytes,
			"throughput_rps": st.Throughput,
			"uptime_s":       st.Uptime.Seconds(),
		},
		// The public half: full-graph passes that ran the backbone vs read
		// the vault's public-half store, and the normal-world (not EPC)
		// bytes each vault's store holds.
		"backbone": map[string]any{
			"passes_computed": st.BackboneComputed,
			"passes_reused":   st.BackboneReused,
			"store_bytes":     a.storeBytes(),
		},
	}
	if a.reg != nil {
		rst := a.reg.Stats()
		resp["scheduler"] = map[string]any{
			"vaults":    rst.Vaults,
			"resident":  rst.Resident,
			"requests":  rst.Requests,
			"plans":     rst.Plans,
			"evictions": rst.Evictions,
		}
		resp["enclave"] = map[string]any{
			"epc_used_bytes":  rst.EPCUsed,
			"epc_free_bytes":  rst.EPCFree,
			"epc_limit_bytes": rst.EPCLimit,
			"epc_used_mb":     float64(rst.EPCUsed) / (1 << 20),
			"epc_limit_mb":    float64(rst.EPCLimit) / (1 << 20),
		}
	}
	if a.shard != nil {
		sst := a.shard.ShardStats()
		var used, free, limit, halo int64
		for i := 0; i < sst.Shards; i++ {
			used += sst.EPCUsed[i]
			free += sst.EPCFree[i]
			limit += sst.EPCLimit[i]
			halo += sst.HaloBytes[i]
		}
		resp["enclave"] = map[string]any{
			"epc_used_bytes":  used,
			"epc_free_bytes":  free,
			"epc_limit_bytes": limit,
			"epc_used_mb":     float64(used) / (1 << 20),
			"epc_limit_mb":    float64(limit) / (1 << 20),
		}
		resp["shards"] = map[string]any{
			"shards":               sst.Shards,
			"available":            sst.Available,
			"halo_bytes":           sst.HaloBytes,
			"halo_bytes_total":     halo,
			"epc_used_bytes":       sst.EPCUsed,
			"epc_limit_bytes":      sst.EPCLimit,
			"fanout_p50_ms":        float64(sst.Fanout.Quantile(0.50)) / 1e6,
			"fanout_p99_ms":        float64(sst.Fanout.Quantile(0.99)) / 1e6,
			"ocalls_total":         sst.Ledger.OCalls,
			"ecall_bytes_in_total": sst.Ledger.BytesIn,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// storeBytes reports each catalogued vault's public-half store size. Every
// shard vault of a fleet shares the fleet's one registration, so shard 0
// answers for it.
func (a *API) storeBytes() map[string]int64 {
	out := make(map[string]int64, len(a.cfg.Vaults))
	for _, info := range a.cfg.Vaults {
		var v *core.Vault
		if a.shard != nil {
			v = a.shard.sv.Shard(0)
		} else if a.reg != nil {
			v = a.reg.Vault(info.ID)
		}
		if v != nil {
			out[info.ID] = v.EmbeddingStoreBytes()
		}
	}
	return out
}

// handleHealthz is the liveness probe: the process is up and the serving
// surface answers. It stays 200 through shard outages — degraded is not
// dead; that distinction belongs to /readyz.
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe. A registry-backed fleet is ready
// whenever it is up (residency is the scheduler's business). A shard
// fleet is ready only when every shard admits queries: a degraded fleet
// answers 503 with Retry-After and the per-shard availability, breaker
// state and restart counts, so a load balancer drains it while node
// queries on healthy shards keep being served to whoever still asks.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if a.shard == nil {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	sst := a.shard.ShardStats()
	ready := true
	for _, ok := range sst.Available {
		if !ok {
			ready = false
			break
		}
	}
	body := map[string]any{
		"shards":    sst.Shards,
		"available": sst.Available,
		"breaker":   sst.Breaker,
		"restarts":  sst.Restarts,
	}
	if ready {
		body["status"] = "ready"
		writeJSON(w, http.StatusOK, body)
		return
	}
	body["status"] = "degraded"
	w.Header().Set("Retry-After", retryAfterSeconds)
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// httpStatus maps an API error to its HTTP status. Client-caused errors
// are 4xx — a 503 would invite retries of requests that can never
// succeed; a body over maxRequestBytes is 413 (checked before the
// malformed-body 400 it also is). ErrShardUnavailable,
// enclave.ErrEnclaveLost and the deadline errors are listed explicitly even though they share the default's 503:
// each is transient server state where a retry is exactly right (a lost
// shard is being re-sealed by the recovery loop; a deadline says the
// fleet was too slow this time, not that the query is bad), and pinning
// them here keeps the sentinel→status contract under test as the default
// evolves. Every 503 and 429 carries a Retry-After header (httpError).
func httpStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShardUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, enclave.ErrEnclaveLost):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrScoresDisabled):
		return http.StatusForbidden
	case errors.Is(err, registry.ErrUnknownVault):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrNodeQueriesDisabled), errors.Is(err, ErrNodeQueriesDisabled):
		return http.StatusNotImplemented
	case errors.Is(err, subgraph.ErrTooManySeeds),
		errors.Is(err, core.ErrNodeOutOfRange),
		errors.Is(err, errEmptyNodes),
		errors.Is(err, errTooManyNodes),
		errors.Is(err, errMalformedBody):
		return http.StatusBadRequest
	default:
		return http.StatusServiceUnavailable
	}
}

// writeJSON sends one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the Retry-After hint attached to every throttled
// (429) and transiently failed (503) response: long enough for a breaker
// recovery round or a token refill, short enough that clients re-probe a
// recovered fleet promptly.
const retryAfterSeconds = "1"

// httpError sends a JSON error body with the given status. Retryable
// statuses (429, 503) carry a Retry-After header so well-behaved clients
// back off instead of hammering a recovering fleet.
func httpError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
