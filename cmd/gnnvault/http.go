package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/serve"
)

// apiConfig assembles the shared serving surface (serve.API) from the
// fleet: the catalog, the per-vault feature matrices and the optional
// per-client rate limit. The HTTP handlers themselves live in
// internal/serve so that in-process clients — notably the privacy
// harness — exercise byte-identical endpoint behavior.
func apiConfig(fl *fleet, limit *serve.RateLimit, precision string, ring *obs.Ring, pprof bool) serve.APIConfig {
	vaults := make([]serve.APIVault, len(fl.vaults))
	for i, v := range fl.vaults {
		vaults[i] = serve.APIVault{
			ID:      v.ID,
			Dataset: v.Dataset,
			Design:  v.Design,
			Nodes:   v.Nodes,
			Params:  v.Params,
		}
	}
	byID := make(map[string]string, len(fl.vaults))
	for _, v := range fl.vaults {
		byID[v.ID] = v.Dataset
	}
	return serve.APIConfig{
		Vaults: vaults,
		Features: func(vaultID string) *mat.Matrix {
			ds := fl.data[byID[vaultID]]
			if ds == nil {
				return nil
			}
			return ds.X
		},
		NodeQueries: fl.nodeQueries,
		Limit:       limit,
		Precision:   precision,
		Trace:       ring,
		EnablePprof: pprof,
	}
}

// Connection timeouts of the API listener. A client that never finishes
// its request headers, or trickles a (≤ 1 MiB) body, is hung up on instead
// of pinning a connection and its goroutine for as long as it likes. There
// is no write timeout: /debug/pprof/profile streams for 30 s by design.
const (
	apiReadHeaderTimeout = 5 * time.Second
	apiReadTimeout       = 30 * time.Second
	apiIdleTimeout       = 2 * time.Minute
)

// apiServer wraps a handler in the http.Server every API listener uses.
func apiServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: apiReadHeaderTimeout,
		ReadTimeout:       apiReadTimeout,
		IdleTimeout:       apiIdleTimeout,
	}
}

// listenAPI serves the API — over the registry fleet or the shard fleet
// alike — until the process is interrupted.
func listenAPI(addr string, api *serve.API, ring *obs.Ring, pprof bool) {
	extra := ""
	if ring != nil {
		extra += ", GET /debug/trace"
	}
	if pprof {
		extra += ", GET /debug/pprof/"
	}
	fmt.Printf("HTTP API on %s: POST /predict, POST /predict_nodes, GET /vaults, GET /stats, GET /metrics%s\n", addr, extra)
	if err := apiServer(addr, api.Handler()).ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "http server:", err)
		os.Exit(1)
	}
}
