package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// outDir is the only place the benchmark writes.
const outDir = "bench/out"

// Phase lengths as shares of the measured window (-seconds): the issue's
// 3 s / 20 s / 5 s shape, scaled together.
const (
	warmupShare      = 0.15
	replayShare      = 0.25
	traceOnlyWindow  = 0.2 // -trace 1: a short window for the count metrics
	traceOnlyReplay  = 0.6 // -trace 1: most of the time goes to the replay
	minReplaySeconds = 2.0
)

// setupReps is how many times a run stands the stack up to take the
// median set-up time; the last one stays up and is served.
const setupReps = 7

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type layerShare struct {
	Predicted float64 `json:"predicted"`
	Measured  float64 `json:"measured"`
}

type modelReport struct {
	ID          string  `json:"id"`
	RectAcc     float64 `json:"rectified_test_accuracy"`
	BackboneAcc float64 `json:"backbone_test_accuracy"`
	ClassCounts []int   `json:"reference_class_counts"`
}

// report is bench/out/<workload>.json.
type report struct {
	Env      env     `json:"env"`
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     int64   `json:"seed"`
	Trace    string  `json:"trace"`
	Windows  windows `json:"windows_s"`
	Clients  int     `json:"closed_loop_clients"`

	Phases map[string]phaseCounts `json:"phases"`

	Fixture struct {
		Name      string        `json:"name"`
		GenerateS float64       `json:"generate_s"`
		TrainS    float64       `json:"train_s"`
		Models    []modelReport `json:"models"`
	} `json:"fixture"`
	// ProcessReadyS is process start → served stack answering: fixture
	// build and training included, unlike setup_s.
	ProcessReadyS float64 `json:"process_ready_s"`
	// SetupSamples are the repeated set-ups behind setup_s.
	SetupSamples []setupSample `json:"setup_samples"`

	// EndToEnd holds the figures the benchmark reports: the host-clock ones
	// at reference-host speed (see ref.go). EndToEndRaw holds the same
	// figures as measured, and HostFactor the median host-speed factor of
	// the window that separates the two.
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	EndToEndRaw map[string]metricValue `json:"end_to_end_as_measured,omitempty"`
	HostFactor  float64                `json:"host_speed_factor"`
	// TailPercentile is the percentile latency_p95_ms actually reports
	// (below 0.95 when the window held fewer than 200 samples).
	TailPercentile float64                `json:"latency_tail_percentile,omitempty"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	LayerShares    map[string]layerShare  `json:"layer_share_of_request,omitempty"`
	DominantLayer  string                 `json:"dominant_layer,omitempty"`

	// Correct is false when any answer was wrong or any request failed;
	// Problems says which. Warnings are the benchmark doubting its own
	// decomposition (few samples, noisy box), not the program's answers.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

type windows struct {
	Warmup float64 `json:"warmup"`
	Window float64 `json:"window"`
	Replay float64 `json:"replay"`
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

type runOptions struct {
	Workload *workload
	Seed     int64
	Seconds  float64
	Trace    string // "0" window only, "1" replay only, "both"
	// Wrap wraps the served handler (self-check only).
	Wrap func(http.Handler) http.Handler
	// Fixture, when set, is reused instead of built (self-check only).
	Fixture *fixture
}

var processStart = time.Now()

// runWorkload is one benchmark run: fixture → repeated set-up → warm-up →
// measured window (tracing off) → traced replay.
func runWorkload(o runOptions) (*report, error) {
	w := o.Workload
	rep := &report{
		Env: readEnv(), Workload: w.Name, Why: w.Why, Seed: o.Seed, Trace: o.Trace,
		Clients: loadClients, Phases: map[string]phaseCounts{}, Correct: true,
	}
	rep.Windows.Warmup = o.Seconds * warmupShare
	switch o.Trace {
	case "0":
		rep.Windows.Window = o.Seconds
	case "1":
		rep.Windows.Window = o.Seconds * traceOnlyWindow
		rep.Windows.Replay = o.Seconds * traceOnlyReplay
	default:
		rep.Windows.Window = o.Seconds
		rep.Windows.Replay = o.Seconds * replayShare
	}
	if o.Trace != "0" && rep.Windows.Replay < minReplaySeconds {
		rep.Windows.Replay = minReplaySeconds
	}

	fx := o.Fixture
	if fx == nil {
		var err error
		if fx, err = buildFixture(w.Fixture); err != nil {
			return nil, err
		}
	}
	rep.Fixture.Name, rep.Fixture.GenerateS, rep.Fixture.TrainS = fx.Name, fx.GenerateS, fx.TrainS
	for _, m := range fx.Models {
		counts := make([]int, fx.DS.NumClasses)
		for _, l := range m.Ref {
			counts[l]++
		}
		rep.Fixture.Models = append(rep.Fixture.Models, modelReport{m.ID, m.RectAcc, m.BackboneAcc, counts})
	}

	// From here on the process asks for one core only, and every
	// host-clock figure is read against the host-speed reference (ref.go).
	// Training above used what the box has; it is in no bounded figure.
	runtime.GOMAXPROCS(1)
	rep.Env.GOMAXPROCS = 1
	ref := newHostRef()

	st, samples, err := measureSetup(w, fx, ref, o.Seed, o.Wrap)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	rep.SetupSamples = samples
	rep.ProcessReadyS = time.Since(processStart).Seconds()

	// Warm-up: lazy plans and caches under the same two-client load, then
	// the strict answer checks.
	warm := runLoad(st, w, fx, ref, o.Seed+7919, secs(rep.Windows.Warmup))
	rep.Phases["warmup"] = warm.Counts
	if warm.FirstErr != nil {
		rep.problem("warm-up: %v", warm.FirstErr)
	}
	if err := checkAnswers(st, w, fx, o.Seed); err != nil {
		rep.problem("answer check: %v", err)
	}

	// Training and the repeated set-ups leave garbage behind; collect it
	// now so the window does not pay for a collection it did not cause.
	runtime.GC()
	win := runLoad(st, w, fx, ref, o.Seed, secs(rep.Windows.Window))
	rep.Phases["window"] = win.Counts
	if win.FirstErr != nil {
		rep.problem("window: %v", win.FirstErr)
	}
	if win.Counts.Succeeded == 0 {
		return nil, fmt.Errorf("window completed no request: %v", win.FirstErr)
	}
	rep.HostFactor = win.hostFactor()
	if o.Trace != "1" {
		rep.EndToEnd, rep.TailPercentile = endToEndMetrics(&win, samples, true)
		rep.EndToEndRaw, _ = endToEndMetrics(&win, samples, false)
		// The warm-up compared every label exactly. The window samples
		// nodesPerRequest labels a request, so below a floor of 1 its
		// share carries sampling error and fails only four standard
		// errors under the floor.
		floor := w.MinAgreement - 4*math.Sqrt(w.MinAgreement*(1-w.MinAgreement)/float64(win.LabelsTotal))
		if a := rep.EndToEnd["label_agreement"].Value; a < floor {
			rep.problem("label_agreement %.4f below %.4f", a, floor)
		}
	}
	if o.Trace != "0" {
		if err := tracedReplay(rep, st, w, fx, &win, o); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	if len(rep.Problems) > 0 {
		rep.Correct = false
	}
	return rep, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// firstAnswers sends one request to every endpoint × vault the workload
// uses and requires a 200 with the right label count from each.
func firstAnswers(st *stack, w *workload, fx *fixture, seed int64) error {
	cl := newClient(st.URL)
	defer cl.close()
	str := newStream(w, fx, seed, loadClients) // a stream no load client draws from
	for range fx.Models {
		r := str.Next()
		rep, err := cl.do(&r)
		if err != nil {
			return err
		}
		if _, _, err := agreement(fx.model(r.Vault).Ref, r.Nodes, rep.Labels); err != nil {
			return fmt.Errorf("%s %s: %w", r.Path, r.Vault, err)
		}
	}
	return nil
}

// setupSample is one timed set-up: as measured, and the host-speed factor
// sampled around it.
type setupSample struct {
	Seconds float64 `json:"seconds"`
	Host    float64 `json:"host_speed_factor"`
}

// measureSetup stands the stack up setupReps times, timing each from the
// first deploy call to the first 200 on every endpoint the workload uses,
// with a host-speed sample before and after, and keeps the last stack
// serving.
func measureSetup(w *workload, fx *fixture, ref *hostRef, seed int64, wrap func(http.Handler) http.Handler) (*stack, []setupSample, error) {
	var samples []setupSample
	host := ref.sample()
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := standUp(w, fx, nil, wrap)
		if err != nil {
			return nil, nil, err
		}
		if err := firstAnswers(st, w, fx, seed); err != nil {
			st.close()
			return nil, nil, fmt.Errorf("first answer: %w", err)
		}
		took := time.Since(t0).Seconds()
		after := ref.sample()
		samples = append(samples, setupSample{Seconds: took, Host: (host + after) / 2})
		host = after
		if i == setupReps-1 {
			return st, samples, nil
		}
		st.close()
	}
}

// checkAnswers is the strict, non-statistical answer check made once per
// run. Full-graph workloads fetch every label of every vault and compare
// the whole vector with the reference. The node-query workload, whose
// sampled answers legitimately differ from the exact ones, must instead
// answer the same request identically twice (extraction is a pure
// function of the sampler seed and the seed nodes).
func checkAnswers(st *stack, w *workload, fx *fixture, seed int64) error {
	cl := newClient(st.URL)
	defer cl.close()
	if w.NodeQuery != nil {
		str := newStream(w, fx, seed, loadClients)
		for i := 0; i < 50; i++ {
			r := str.Next()
			a, err := cl.do(&r)
			if err != nil {
				return err
			}
			b, err := cl.do(&r)
			if err != nil {
				return err
			}
			if !slices.Equal(a.Labels, b.Labels) {
				return fmt.Errorf("%s %v answered %v then %v", r.Path, r.Nodes, a.Labels, b.Labels)
			}
			for _, l := range a.Labels {
				if l < 0 || l >= fx.DS.NumClasses {
					return fmt.Errorf("%s %v: label %d outside [0,%d)", r.Path, r.Nodes, l, fx.DS.NumClasses)
				}
			}
		}
		return nil
	}
	for _, m := range fx.Models {
		r := request{Path: "/predict", Vault: m.ID}
		rep, err := cl.do(&r)
		if err != nil {
			return err
		}
		eq, tot, err := agreement(m.Ref, nil, rep.Labels)
		if err != nil {
			return fmt.Errorf("%s: %w", m.ID, err)
		}
		if share := float64(eq) / float64(tot); share < w.MinAgreement {
			return fmt.Errorf("%s: %d of %d labels equal the nn-path reference (%.4f, need %.4f)", m.ID, eq, tot, share, w.MinAgreement)
		}
	}
	return nil
}

// endToEndMetrics turns one window into the ten user-visible figures.
// normalised reads the host-clock ones at reference-host speed: every
// latency, every round's busy time, CPU time and ledger compute time, and
// every set-up time is divided by the host-speed factor sampled around it.
// The modelled transition, transfer and paging costs and the counts are
// not host time and are left alone.
func endToEndMetrics(win *loadResult, setups []setupSample, normalised bool) (map[string]metricValue, float64) {
	n := float64(win.Counts.Succeeded)
	lat := win.latencies(normalised)
	p50, _ := percentile(lat, 0.50)
	p95, used := percentile(lat, 0.95)
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.Seconds
		if normalised {
			setupS[i] /= s.Host
		}
	}
	l := win.Ledger
	vals := map[string]float64{
		"setup_s":                     median(setupS),
		"throughput_rps":              sliceMedianRate(win.Rounds, win.Seconds, 5, normalised),
		"latency_p50_ms":              p50,
		"latency_p95_ms":              p95,
		"cpu_ms_per_req":              win.cpuMs(normalised) / n,
		"enclave_modelled_ms_per_req": (float64(l.TransitionNs+l.TransferNs+l.PagingNs) + win.computeNs(normalised)) / 1e6 / n,
		// bytes ÷ requests first: where every request moves the same bytes
		// the quotient is exact, so the figure repeats to the last bit
		"boundary_kb_per_req": float64(l.BytesIn+l.BytesOut) / n / 1e3,
		"peak_epc_mb":         float64(win.PeakEPC) / (1 << 20),
		"label_agreement":     float64(win.LabelsEqual) / float64(win.LabelsTotal),
		"success_share":       n / float64(win.Counts.Sent),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		out[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return out, used
}

// writeJSON writes v under outDir.
func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
}

// printMetrics prints every metric by name with its unit, in table order.
func printMetrics(title string, specs []metricSpec, vals map[string]metricValue) {
	if len(vals) == 0 {
		return
	}
	fmt.Printf("%s\n", title)
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-30s %14.4f %-8s [%s]\n", m.Name, v.Value, v.Unit, m.Clock)
	}
}
