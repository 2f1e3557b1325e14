// Package obs is the flight recorder behind every GNNVault serving
// surface: a zero-alloc-on-hot-path telemetry core of atomic counters
// and fixed-bucket log-scale histograms, plus a preallocated
// ring-buffer span recorder that captures where inside a query time and
// bytes go (expand → induce → ECALL → per-op tiles → spill).
//
// Everything here is built so the instrumented hot paths keep their
// 0 allocs/op invariant: counters and histograms are arrays of atomics
// (recording is an index computation and an atomic add), spans are plain
// structs of scalars written into a preallocated ring, and the Recorder
// interface has a no-op default so uninstrumented deployments pay one
// predictable-branch interface call per probe and nothing else. Outputs
// are bit-identical whether telemetry is on or off — the recorder only
// ever observes, never participates.
//
// The package deliberately has no registration framework and no external
// dependencies: metric owners (internal/serve) hold their counters and
// histograms directly and render them with the hand-rolled Prometheus
// text helpers in prom.go.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// SpanKind names what a recorded span measures. Query kinds are trace
// roots; the rest nest under them.
type SpanKind uint8

// The span vocabulary, mirroring the stages of the two serving paths:
// a full-graph query is backbone → ECALL(ops); a node query is expand →
// induce(public) → backbone → ECALL(induce(private) + ops). Plan and
// evict spans come from the registry's workspace scheduler.
const (
	SpanQuery         SpanKind = iota + 1 // full-graph predict, trace root
	SpanNodeQuery                         // subgraph predict_nodes, trace root
	SpanExpand                            // L-hop frontier expansion (normal world)
	SpanInduce                            // public sub-CSR induction (normal world)
	SpanBackbone                          // backbone forward (normal world)
	SpanECall                             // modelled enclave transition + in-enclave work
	SpanInducePrivate                     // private sub-CSR induction (inside the ECALL)
	SpanOp                                // one executor op (see Span.Op)
	SpanPlan                              // registry cold-start workspace plan
	SpanEvict                             // registry LRU eviction
	SpanFault                             // shard enclave lost / breaker tripped (Rows = shard)
	SpanRecover                           // shard recovered and rejoined (Rows = shard, Dur = outage)
)

// String names the span kind for trace output.
func (k SpanKind) String() string {
	switch k {
	case SpanQuery:
		return "query"
	case SpanNodeQuery:
		return "node_query"
	case SpanExpand:
		return "expand"
	case SpanInduce:
		return "induce"
	case SpanBackbone:
		return "backbone"
	case SpanECall:
		return "ecall"
	case SpanInducePrivate:
		return "induce_private"
	case SpanOp:
		return "op"
	case SpanPlan:
		return "plan"
	case SpanEvict:
		return "evict"
	case SpanFault:
		return "fault"
	case SpanRecover:
		return "recover"
	default:
		return "unknown"
	}
}

// Span is one completed measurement. All fields are scalars so recording
// a span can never allocate. Trace is the root span's ID (every span of
// one query shares it), Parent links the tree, and ID is non-zero only
// for spans that other spans reference as a parent.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Kind   SpanKind
	Op     uint8 // exec.OpKind for SpanOp spans
	Rows   int32 // batch height the span processed
	Tiles  int32 // tile count for SpanOp spans (1 when direct)
	Bytes  int64 // boundary bytes: ECALL payload+spill, or per-op tile flush
	Start  int64 // ns since the recorder started
	Dur    int64 // ns
}

// Recorder is the span-recording interface instrumentation compiles
// against. The hot paths hold a Recorder and probe it per stage; the
// no-op implementation (Nop) keeps those probes at one interface call
// each, preserving 0 allocs/op and bit-identical outputs, while a *Ring
// captures real spans.
type Recorder interface {
	// Enabled reports whether Record does anything; instrumentation
	// skips its timing work entirely when false.
	Enabled() bool
	// NewSpan allocates a fresh span ID (0 when disabled). The first
	// span ID of a query doubles as its trace ID.
	NewSpan() uint64
	// Clock returns ns since the recorder started (0 when disabled);
	// span Start fields are stamped against it.
	Clock() int64
	// Record stores one completed span. Implementations must not retain
	// anything beyond copying the value, and must not allocate.
	Record(s Span)
}

// nop is the disabled Recorder.
type nop struct{}

func (nop) Enabled() bool   { return false }
func (nop) NewSpan() uint64 { return 0 }
func (nop) Clock() int64    { return 0 }
func (nop) Record(Span)     {}

// Nop is the no-op Recorder every instrumented component defaults to.
var Nop Recorder = nop{}
