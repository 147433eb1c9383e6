package main

//sfs:allow detwallclock spans are wall-clock intervals around layer calls; they never feed back into a run

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"failstop/internal/model"
	"failstop/internal/node"
)

// layer names one costed stage of the stack. The traced run opens a span
// at every call into a layer and charges each span's self time (its
// duration minus the spans nested in it) to that layer.
type layer uint8

const (
	lSim        layer = iota // the simulator: scheduling plus the host side of Send
	lRuntime                 // the live goroutine host: the host side of Send
	lNetadv                  // netadv.Plane.Decide
	lReliable                // reliable.Endpoint handler callbacks
	lByz                     // byz.Endpoint handler callbacks
	lCore                    // core.Detector handler callbacks and Suspect
	lCheckerSFS              // checker FS1, FS2, sFS2a–d, Conditions 1–3
	lCheckerW                // checker.WitnessProperty
	lBuild                   // cluster construction
	numLayers
)

var layerNames = [numLayers]string{"sim", "runtime", "netadv", "reliable", "byz", "core", "checker.sfs", "checker.witness", "build"}

func (l layer) String() string { return layerNames[l] }

// span is one closed layer call, in nanoseconds since the tracer's epoch.
type span struct {
	run        int32
	layer      layer
	start, end int64
}

// layerAgg totals one layer's spans.
type layerAgg struct {
	calls       int64
	total, self time.Duration
	// sends counts messages the layer handed to the layer below it (or to
	// the host), recvs the deliveries it received from below.
	sends, recvs int64
}

// keepSpans caps the raw spans one traced run retains for the span file;
// the per-layer totals always cover every span. Retained spans are heap
// the untraced pass does not have, and the collector paces itself on the
// live heap (see measure): 2^14 spans take about 0.4 MB.
const keepSpans = 1 << 14

// tracer records spans for one thread of control: one simulated run, one
// live process, or one checker call. Spans nest strictly within it, so a
// stack yields self times online.
type tracer struct {
	epoch time.Time
	run   int32
	stack []openSpan
	agg   [numLayers]layerAgg
	spans []span
	keep  int // spans this tracer may still retain
}

type openSpan struct {
	layer layer
	start int64
	child int64
}

func newTracer(epoch time.Time, run int32, keep int) *tracer {
	return &tracer{epoch: epoch, run: run, stack: make([]openSpan, 0, 8), keep: keep}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, openSpan{layer: l, start: t.now()})
}

func (t *tracer) end() {
	end := t.now()
	top := len(t.stack) - 1
	o := t.stack[top]
	t.stack = t.stack[:top]
	d := end - o.start
	a := &t.agg[o.layer]
	a.calls++
	a.total += time.Duration(d)
	a.self += time.Duration(d - o.child)
	if top > 0 {
		t.stack[top-1].child += d
	}
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, span{run: t.run, layer: o.layer, start: o.start, end: end})
	}
}

// traceLog gathers the tracers of a traced pass, from any goroutine.
type traceLog struct {
	epoch time.Time
	mu    sync.Mutex
	agg   [numLayers]layerAgg
	spans []span
}

func newTraceLog() *traceLog { return &traceLog{epoch: time.Now()} }

// tracer starts a tracer that retains at most the spans the log still
// has room for.
func (g *traceLog) tracer(run int) *tracer {
	g.mu.Lock()
	room := keepSpans - len(g.spans)
	g.mu.Unlock()
	return newTracer(g.epoch, int32(run), room)
}

// merge folds a finished tracer into the log.
func (g *traceLog) merge(t *tracer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for l := range t.agg {
		a, b := &g.agg[l], t.agg[l]
		a.calls += b.calls
		a.total += b.total
		a.self += b.self
		a.sends += b.sends
		a.recvs += b.recvs
	}
	if room := keepSpans - len(g.spans); room > 0 {
		if len(t.spans) > room {
			t.spans = t.spans[:room]
		}
		g.spans = append(g.spans, t.spans...)
	}
}

// write stores the retained spans as tab-separated lines: run, layer,
// start and end in nanoseconds since the traced pass began.
func (g *traceLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run\tlayer\tstart_ns\tend_ns")
	for _, s := range g.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", s.run, s.layer, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

// shim is a timing node.Handler around one layer of a process's stack. It
// forwards every optional host interface (Gate, CrashListener, Restarter,
// Inner) so the host treats the wrapped stack exactly like the bare one.
type shim struct {
	inner node.Handler
	layer layer
	tr    *tracer
	// host, when set, is the layer charged for the host side of Send: the
	// shim is the outermost handler and the context it receives is the
	// host's own.
	host  layer
	outer bool
}

var (
	_ node.Handler       = (*shim)(nil)
	_ node.Gate          = (*shim)(nil)
	_ node.CrashListener = (*shim)(nil)
	_ node.Restarter     = (*shim)(nil)
)

func newShim(inner node.Handler, l layer, tr *tracer) *shim {
	return &shim{inner: inner, layer: l, tr: tr}
}

// hostShim is the outermost shim of a stack, attached to the host.
func hostShim(inner node.Handler, l layer, tr *tracer, host layer) *shim {
	return &shim{inner: inner, layer: l, tr: tr, host: host, outer: true}
}

// wrap returns the context the wrapped layer sees: it counts the layer's
// outgoing sends and, at the host boundary, times the host's Send.
func (s *shim) wrap(ctx node.Context) node.Context { return &shimCtx{Context: ctx, s: s} }

type shimCtx struct {
	node.Context
	s *shim
}

func (c *shimCtx) Send(to model.ProcID, p node.Payload) {
	s := c.s
	s.tr.agg[s.layer].sends++
	if !s.outer {
		c.Context.Send(to, p)
		return
	}
	s.tr.begin(s.host)
	c.Context.Send(to, p)
	s.tr.end()
}

func (s *shim) Init(ctx node.Context) {
	s.tr.begin(s.layer)
	s.inner.Init(s.wrap(ctx))
	s.tr.end()
}

func (s *shim) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	s.tr.agg[s.layer].recvs++
	s.tr.begin(s.layer)
	s.inner.OnMessage(s.wrap(ctx), from, p)
	s.tr.end()
}

func (s *shim) OnTimer(ctx node.Context, name string) {
	s.tr.begin(s.layer)
	s.inner.OnTimer(s.wrap(ctx), name)
	s.tr.end()
}

func (s *shim) Accepts(from model.ProcID, p node.Payload) bool {
	if g, ok := s.inner.(node.Gate); ok {
		return g.Accepts(from, p)
	}
	return true
}

func (s *shim) OnCrash(ctx node.Context) {
	if l, ok := s.inner.(node.CrashListener); ok {
		s.tr.begin(s.layer)
		l.OnCrash(s.wrap(ctx))
		s.tr.end()
	}
}

func (s *shim) Snapshot() []byte {
	if r, ok := s.inner.(node.Restarter); ok {
		return r.Snapshot()
	}
	return nil
}

func (s *shim) OnRestart(ctx node.Context, state []byte) {
	s.tr.begin(s.layer)
	if r, ok := s.inner.(node.Restarter); ok {
		r.OnRestart(s.wrap(ctx), state)
	} else {
		s.inner.Init(s.wrap(ctx))
	}
	s.tr.end()
}

// Inner exposes the wrapped handler, so hosts that walk a wrapper chain
// (the simulator's search for the Byzantine interposer's counters) see
// through the shim.
func (s *shim) Inner() node.Handler { return s.inner }

// reliableShim is the shim around a reliable endpoint at the host
// boundary: the simulator reads the layer's counters from the outermost
// handler only.
type reliableShim struct{ *shim }

func (s reliableShim) ReliableStats() (retransmits, ackedDuplicates int) {
	return s.inner.(interface{ ReliableStats() (int, int) }).ReliableStats()
}

// timedLink wraps a fault plane's Decide in netadv spans and counts its
// decisions and drops.
func timedLink(decide node.LinkFn, tr *tracer, drops *int64) node.LinkFn {
	return func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		tr.begin(lNetadv)
		d := decide(from, to, p, at)
		tr.end()
		if d.Drop {
			*drops++
		}
		return d
	}
}
