package main

import (
	"fmt"
	"net"
	"net/http"

	"gnnvault/internal/core"
	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
	"gnnvault/internal/obs"
	"gnnvault/internal/registry"
	"gnnvault/internal/serve"
)

// serveWorkers matches the two closed-loop clients.
const serveWorkers = 2

// deployment is a workload's models provisioned into enclaves the way
// `gnnvault serve` does it: every vault in one shared enclave behind an
// EPC-aware registry, or one vault cut across a shard fleet. The served
// stacks and the replay's probe each own one.
type deployment struct {
	enclaves []*enclave.Enclave
	reg      *registry.Registry // nil on the shard fleet
	vaults   []*core.Vault
	sv       *core.ShardedVault // nil unless sharded
}

// deploy provisions fx for w. rec, when non-nil, arms the program's
// flight recorder in the registry and every plan it makes.
func deploy(w *workload, fx *fixture, rec obs.Recorder) (*deployment, error) {
	d := &deployment{}
	cost := enclave.DefaultCostModel()
	cost.EPCBytes = w.EPCMB << 20 // per enclave: each shard has its own EPC
	x := fx.DS.X
	if w.Shards > 1 {
		m := fx.Models[0]
		sv, err := core.DeploySharded(m.BB, m.Rec, fx.DS.Graph, cost, w.Shards)
		if err != nil {
			return nil, fmt.Errorf("sharded deploy: %w", err)
		}
		d.sv = sv
		for i := 0; i < sv.Shards(); i++ {
			d.enclaves = append(d.enclaves, sv.Shard(i).Enclave)
		}
		if err := sv.SetCalibrationFeatures(x); err != nil {
			d.close()
			return nil, fmt.Errorf("calibration features: %w", err)
		}
		return d, nil
	}
	var ids [][]byte
	for _, m := range fx.Models {
		ids = append(ids, m.Rec.Identity())
	}
	encl := enclave.New(cost, ids...)
	d.enclaves = []*enclave.Enclave{encl}
	d.reg = registry.New(encl, registry.Config{
		WorkspacesPerVault: serveWorkers, Plan: w.Plan, NodeQuery: w.NodeQuery, Recorder: rec,
	})
	for _, m := range fx.Models {
		v, err := core.DeployInto(encl, m.BB, m.Rec, fx.DS.Graph)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("deploy %s: %w", m.ID, err)
		}
		d.vaults = append(d.vaults, v)
		if err := v.SetCalibrationFeatures(x); err != nil {
			d.close()
			return nil, fmt.Errorf("calibration features %s: %w", m.ID, err)
		}
		if err := d.reg.Register(m.ID, v); err != nil {
			d.close()
			return nil, fmt.Errorf("register %s: %w", m.ID, err)
		}
		if w.NodeQuery != nil {
			if err := d.reg.EnableNodeQueries(m.ID, x); err != nil {
				d.close()
				return nil, fmt.Errorf("node queries %s: %w", m.ID, err)
			}
		}
	}
	return d, nil
}

// close undeploys everything. Safe on a partly built deployment.
func (d *deployment) close() {
	if d.reg != nil {
		d.reg.Close()
	}
	for _, v := range d.vaults {
		v.Undeploy()
	}
	if d.sv != nil {
		d.sv.Undeploy()
	}
}

// ledger sums the modelled-cost ledgers of every enclave. PeakEPCBytes is
// the busiest single enclave's.
func (d *deployment) ledger() enclave.Ledger {
	var sum enclave.Ledger
	for _, e := range d.enclaves {
		l := e.Ledger()
		sum.ECalls += l.ECalls
		sum.OCalls += l.OCalls
		sum.BytesIn += l.BytesIn
		sum.BytesOut += l.BytesOut
		sum.PageSwaps += l.PageSwaps
		sum.TransitionNs += l.TransitionNs
		sum.TransferNs += l.TransferNs
		sum.PagingNs += l.PagingNs
		sum.ComputeNs += l.ComputeNs
		sum.AllocFailures += l.AllocFailures
		sum.PeakEPCBytes = max(sum.PeakEPCBytes, l.PeakEPCBytes)
	}
	return sum
}

// epcInUse returns the busiest enclave's EPC charge right now.
func (d *deployment) epcInUse() int64 {
	var peak int64
	for _, e := range d.enclaves {
		peak = max(peak, e.EPCUsed())
	}
	return peak
}

// stack is a deployment being served: worker pool → serve.API → its
// Handler on a loopback listener.
type stack struct {
	*deployment
	URL string
	API *serve.API

	multi   *serve.MultiServer
	sharded *serve.ShardedServer
	http    *http.Server
}

// standUp deploys fx for w and starts serving it. ring, when non-nil,
// arms the flight recorder through every layer that takes one; wrap, when
// non-nil, wraps the API handler (the self-check's delay middleware).
func standUp(w *workload, fx *fixture, ring *obs.Ring, wrap func(http.Handler) http.Handler) (*stack, error) {
	var rec obs.Recorder // a nil *obs.Ring must not become a non-nil Recorder
	if ring != nil {
		rec = ring
	}
	d, err := deploy(w, fx, rec)
	if err != nil {
		return nil, err
	}
	s := &stack{deployment: d}
	x := fx.DS.X
	apiCfg := serve.APIConfig{
		Features:    func(string) *mat.Matrix { return x },
		NodeQueries: w.NodeQuery != nil,
		Precision:   w.Plan.Precision.String(),
		Trace:       ring,
	}
	for _, m := range fx.Models {
		apiCfg.Vaults = append(apiCfg.Vaults, serve.APIVault{
			ID: m.ID, Dataset: fx.DS.Name, Design: string(m.Rec.Design),
			Nodes: x.Rows, Params: m.Rec.NumParams(),
		})
	}
	if d.sv != nil {
		plan := w.Plan
		plan.Recorder = rec
		s.sharded, err = serve.NewSharded(d.sv, serve.Config{Workers: serveWorkers, Plan: plan, Features: x, Trace: ring})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("sharded serve: %w", err)
		}
		s.API = serve.NewShardedAPI(s.sharded, apiCfg)
	} else {
		s.multi = serve.NewMulti(d.reg, serve.Config{Workers: serveWorkers})
		s.API = serve.NewAPI(s.multi, d.reg, apiCfg)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := s.API.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s.http = &http.Server{Handler: h}
	go s.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	s.URL = "http://" + ln.Addr().String()
	return s, nil
}

// close stops serving, then undeploys. Safe on a partly built stack.
func (s *stack) close() {
	if s.http != nil {
		s.http.Close()
	}
	if s.multi != nil {
		s.multi.Close()
	}
	if s.sharded != nil {
		s.sharded.Close()
	}
	s.deployment.close()
}

// poolStats snapshots whichever worker pool the stack runs.
func (s *stack) poolStats() serve.Stats {
	if s.sharded != nil {
		return s.sharded.Stats()
	}
	return s.multi.Stats()
}
