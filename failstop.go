// Package failstop is a Go implementation of Sabel & Marzullo, "Simulating
// Fail-Stop in Asynchronous Distributed Systems" (TR 94-1413 / PODC 1994):
// the simulated-fail-stop (sFS) failure model, the one-round quorum
// protocol that implements it, the machinery that proves runs
// indistinguishable from fail-stop, and the lower-bound adversaries that
// show the protocol's quorum sizes are optimal.
//
// The package is a facade over the internal packages; it exposes everything
// a library user needs:
//
//   - NewCluster: a deterministic simulated cluster running the §5 protocol
//     (or the paper's baselines), with crash/suspicion injection.
//   - NewLiveCluster: the same stack on a real goroutine runtime.
//   - CheckSFS / CheckFS / CheckAll: property verdicts on recorded runs.
//   - RewriteToFS / Realizable: Theorem 5's explicit indistinguishability
//     witnesses.
//   - MinQuorum / MaxTolerable: the §4 bounds.
//
// A minimal session:
//
//	c := failstop.NewCluster(failstop.Options{N: 5, T: 2, Seed: 1})
//	c.SuspectAt(10, 2, 1) // process 2 (erroneously) suspects process 1
//	rep := c.Run()
//	fmt.Println(rep.Verdicts)       // FS1 + sFS2a-d all hold; FS2 may not
//	fs, _ := failstop.RewriteToFS(rep.Abstract) // an isomorphic FS run
package failstop

import (
	"fmt"
	"io"
	"time"

	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/obshttp"
	"failstop/internal/quorum"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/rewrite"
	"failstop/internal/runtime"
	"failstop/internal/sim"
	"failstop/internal/topo"
)

// Re-exported model vocabulary. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// ProcID identifies a process (1..n).
	ProcID = model.ProcID
	// Event is one event of a history (send/recv/crash/failed/internal).
	Event = model.Event
	// History is a finite run prefix: the unit all checkers operate on.
	History = model.History
	// Verdict is a property-check outcome.
	Verdict = checker.Verdict
	// Detector is the per-process failure-detection layer.
	Detector = core.Detector
	// App is the application interface hosted above a detector.
	App = core.App
	// Context is the capability handed to protocol and application code.
	Context = node.Context
	// Protocol selects the detection protocol.
	Protocol = core.Protocol
	// FaultPlan is a declarative, seed-deterministic network fault timeline:
	// partitions with scheduled heals, per-link loss, duplication, reorder
	// jitter, and message-class targeting (see internal/netadv).
	FaultPlan = netadv.Plan
	// FaultRule is one entry of a FaultPlan's timeline.
	FaultRule = netadv.Rule
	// LinkSet selects the directed links a FaultRule applies to.
	LinkSet = netadv.LinkSet
	// Link is one directed channel between two processes.
	Link = netadv.Link
	// ReliableOptions configures the optional reliable-delivery layer
	// (sequence numbers, cumulative acks, timed retransmission with
	// backoff, receiver dedup and in-order release) interposed between the
	// protocol and the — possibly faulty — network (see internal/reliable).
	ReliableOptions = reliable.Options
	// ByzantineOptions configures the optional Byzantine validation
	// interposer (per-sender MACs, echo/witness broadcast-consistency
	// quorums, a replay watermark) that masks misbehaving senders into
	// crashes via the §5 protocol (see internal/byz).
	ByzantineOptions = byz.Options
	// ByzFaultRule is one Byzantine entry of a FaultPlan: per-victim payload
	// corruption, equivocation, and replay.
	ByzFaultRule = netadv.ByzRule
	// RecoveryMode selects what a process restarted by a fault plan's
	// process rules remembers: RecoveryOff (restarts disabled, crashes are
	// terminal), RecoveryAmnesia (restart blank), or RecoveryDurable
	// (restart from the crash-time snapshot). See internal/recovery.
	RecoveryMode = recovery.Mode
	// RecoveryStore persists crash-time snapshots under durable recovery.
	RecoveryStore = recovery.Store
	// ProcFaultRule is one process-fault entry of a FaultPlan: a crash
	// window (one-shot or periodic) with an optional restart.
	ProcFaultRule = netadv.ProcRule
	// Metric is one named observability reading; Metrics a name-sorted
	// snapshot of them (see internal/obs).
	Metric = obs.Metric
	// Metrics is a name-sorted metric snapshot.
	Metrics = obs.Metrics
	// MetricsRegistry collects instruments by name; pass one in
	// Options.Metrics / LiveOptions.Metrics to observe a run's counters
	// live (they are atomic) rather than only in the final report.
	MetricsRegistry = obs.Registry
	// Span is one message-lifecycle trace span (send, fault fate, enqueue,
	// deliver, drop, retransmit, suspect, crash-confirm) with a causal
	// parent link.
	Span = obs.Span
	// SpanKind names a span's lifecycle stage.
	SpanKind = obs.SpanKind
	// SpanRecorder collects spans with seed-deterministic sampling: both
	// backends sample the same message IDs for a given (seed, rate), so
	// simulated and live runs of one scenario yield comparable span sets.
	SpanRecorder = obs.SpanRecorder
	// Timeline samples per-tick series (in-flight messages, link backlog,
	// suspicion count) into bounded rings.
	Timeline = obs.Timeline
	// TimelineSeries is one named series of a timeline snapshot.
	TimelineSeries = obs.TimelineSeries
	// TopoSpec describes a communication topology (see internal/topo): the
	// paper's complete graph (the zero value), a seed-deterministic gossip
	// graph, or a rack/region hierarchy. Under a partial topology each
	// process broadcasts to its neighborhood only and completes quorums
	// over that neighborhood's pool — the partial-quorum reading that makes
	// clusters of 10⁴–10⁶ processes simulable.
	TopoSpec = topo.Spec
)

// Topology kinds for TopoSpec.Kind.
const (
	// TopoFull is the paper's complete graph (also the zero TopoSpec).
	TopoFull = topo.KindFull
	// TopoGossip samples TopoSpec.Fanout peers per process, symmetrized.
	TopoGossip = topo.KindGossip
	// TopoHier is a rack/region hierarchy: full racks, leader uplinks.
	TopoHier = topo.KindHier
)

// ParseTopo parses the topology CLI grammar: "full", "gossip:F",
// "gossip:F@SEED", or "hier:RxK" (R regions of K racks each).
func ParseTopo(s string) (TopoSpec, error) { return topo.ParseSpec(s) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanRecorder returns a span recorder sampling message lifecycles at
// the given rate (0..1) as a deterministic function of (seed, message), so
// a fixed (spec, seed) always records the same spans.
func NewSpanRecorder(seed int64, rate float64) *SpanRecorder {
	return obs.NewSpanRecorder(seed, rate)
}

// NewTimeline returns a timeline sampling every `every` ticks, keeping the
// most recent `capacity` points per series (0 for the default capacity).
func NewTimeline(every int64, capacity int) *Timeline {
	return obs.NewTimeline(every, capacity)
}

// WritePrometheus renders a metric snapshot in the Prometheus text
// exposition format (what the live /metrics endpoint serves).
func WritePrometheus(w io.Writer, ms Metrics) error { return obs.WritePrometheus(w, ms) }

// Recovery modes for Options.Recovery / LiveOptions.Recovery.
const (
	// RecoveryOff disables restarts: a fault plan's process rules crash
	// their victims terminally at the first window (the fail-stop reading).
	RecoveryOff = recovery.Off
	// RecoveryAmnesia restarts processes with zero state.
	RecoveryAmnesia = recovery.Amnesia
	// RecoveryDurable restarts processes from crash-time snapshots.
	RecoveryDurable = recovery.Durable
)

// ParseRecoveryMode parses "off", "amnesia", or "durable" ("" is off).
func ParseRecoveryMode(s string) (RecoveryMode, error) { return recovery.ParseMode(s) }

// Protocol choices.
const (
	// SFS is the paper's §5 one-round quorum protocol (the default).
	SFS = core.SimulatedFailStop
	// Cheap is the §6 baseline: broadcast, then detect without waiting.
	Cheap = core.Cheap
	// Unilateral is the §4 strawman: detect with no communication.
	Unilateral = core.Unilateral
)

// Options configures a cluster.
type Options struct {
	// N is the number of processes (required, >= 2). T is the maximum
	// number of failures tolerated, including erroneous detections
	// (default 1). For minimum quorums to make progress, keep N > T²
	// (Corollary 8).
	N, T int
	// Protocol selects the detection protocol. Default: SFS.
	Protocol Protocol
	// Seed makes runs reproducible.
	Seed int64
	// MinDelay/MaxDelay bound the simulated message delays (ticks).
	// Defaults: 1 and 10.
	MinDelay, MaxDelay int64
	// MaxTime stops the simulation at a horizon; 0 runs to quiescence.
	// Required (>0) when heartbeats are enabled, which re-arm forever.
	MaxTime int64
	// HeartbeatEvery enables the fd layer: heartbeats every given ticks.
	// 0 disables heartbeats (suspicions are injected explicitly).
	HeartbeatEvery int64
	// HeartbeatTimeout is the suspicion timeout; 0 with heartbeats enabled
	// means "never suspect" (useful to demonstrate FS1 violations).
	HeartbeatTimeout int64
	// Topology, when non-nil and not the full mesh, runs the protocol over
	// a partial communication graph: SUSP broadcasts and heartbeats go to
	// each process's neighborhood only, and quorums complete over the
	// neighborhood pool (see TopoSpec). nil means the paper's complete
	// graph.
	Topology *TopoSpec
	// Faults, when non-nil, subjects the cluster's network to the given
	// fault plan (instantiated with Seed): partitions, loss, duplication,
	// reorder. Use BuiltinFaultPlan for the named built-ins.
	Faults *FaultPlan
	// Reliable, when Enabled, masks the fault plan's loss, duplication, and
	// reorder with per-link acks, retransmission, dedup, and in-order
	// release — healed partitions then recover in-flight detections that
	// the once-only §5 broadcast would lose. Retransmission to a crashed
	// process re-arms forever unless MaxRetries bounds it, so Enabled with
	// MaxRetries 0 requires a MaxTime horizon.
	Reliable ReliableOptions
	// Byzantine, when Enabled, interposes the validation layer under every
	// process: outgoing payloads are sealed with a deterministic per-sender
	// MAC, configured broadcast tags are released only after a witness
	// quorum corroborates a consistent payload, and senders convicted of
	// misbehavior (bad MAC, equivocation, stale replay) are masked — their
	// traffic is discarded and the culprit is suspected through the §5
	// protocol, demoting the Byzantine fault to a crash. Pair it with a
	// FaultPlan carrying Byz rules (e.g. the byzantine-minority builtin).
	Byzantine ByzantineOptions
	// Recovery selects how the fault plan's process rules (FaultPlan.Procs)
	// behave: RecoveryOff makes every plan crash terminal, RecoveryAmnesia
	// restarts the victims blank, RecoveryDurable restarts them from
	// crash-time snapshots (detector and reliable-layer state). Plans with
	// unbounded restart storms require MaxTime when restarts are enabled.
	Recovery RecoveryMode
	// NewApp, when non-nil, builds the application for each process.
	NewApp func(p ProcID) App
	// Metrics, when non-nil, additionally registers the run's counters
	// (and the fault plane's, with Faults set) in the given registry; the
	// same readings always appear in Report.Metrics.
	Metrics *MetricsRegistry
	// Spans, when non-nil, records sampled message-lifecycle spans into
	// Report.Spans. Sampling is a deterministic function of (recorder
	// seed, message), so a fixed (options, seed) records identical spans
	// on every run.
	Spans *SpanRecorder
	// Timeline, when non-nil, samples per-tick series into
	// Report.Timeline.
	Timeline *Timeline
}

// Validate reports the first problem with the options, or nil:
// N must be at least 2; heartbeats re-arm forever, so HeartbeatEvery > 0
// requires a MaxTime horizon; a fault plan must be well-formed for N.
func (o Options) Validate() error {
	if o.N < 2 {
		return fmt.Errorf("failstop: Options.N = %d; need at least 2 processes", o.N)
	}
	if o.T < 0 {
		return fmt.Errorf("failstop: Options.T = %d; the failure bound cannot be negative", o.T)
	}
	if o.HeartbeatEvery > 0 && o.MaxTime <= 0 {
		return fmt.Errorf("failstop: Options.HeartbeatEvery = %d requires MaxTime > 0 (heartbeats re-arm forever, so the run would never drain)", o.HeartbeatEvery)
	}
	if o.Topology != nil {
		if _, err := topo.New(*o.Topology, o.N); err != nil {
			return fmt.Errorf("failstop: Options.Topology: %w", err)
		}
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(o.N); err != nil {
			return fmt.Errorf("failstop: Options.Faults: %w", err)
		}
	}
	if err := o.Reliable.Validate(); err != nil {
		return fmt.Errorf("failstop: Options.Reliable: %w", err)
	}
	if err := o.Byzantine.Validate(); err != nil {
		return fmt.Errorf("failstop: Options.Byzantine: %w", err)
	}
	if o.Reliable.Enabled && o.Reliable.MaxRetries == 0 && o.MaxTime <= 0 {
		return fmt.Errorf("failstop: Options.Reliable retries forever (MaxRetries = 0); set MaxTime so runs with crashed peers terminate")
	}
	if o.Faults != nil && o.Faults.UnboundedProcs() && o.Recovery != RecoveryOff && o.MaxTime <= 0 {
		return fmt.Errorf("failstop: Options.Faults plan %q restarts processes forever; set MaxTime so the run terminates", o.Faults.Name)
	}
	return nil
}

// Cluster is a deterministic simulated cluster.
type Cluster struct {
	inner *cluster.Cluster
	opts  Options
	plane *netadv.Plane // nil without Options.Faults
}

// NewCluster builds a simulated cluster per opts. It panics with the
// Options.Validate error when the options are invalid — call Validate first
// to reject untrusted configuration gracefully.
func NewCluster(opts Options) *Cluster {
	if opts.T == 0 {
		opts.T = 1
	}
	if opts.Protocol == 0 {
		opts.Protocol = SFS
	}
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	var link node.LinkFn
	var plane *netadv.Plane
	if opts.Faults != nil {
		plane = netadv.NewPlane(*opts.Faults, opts.N, opts.Seed)
		plane.Register(opts.Metrics)
		link = plane.Decide
	}
	var lifetimes []recovery.Lifetime
	if opts.Faults != nil {
		lifetimes = opts.Faults.Lifetimes()
	}
	co := cluster.Options{
		Sim: sim.Config{
			N: opts.N, Seed: opts.Seed,
			MinDelay: opts.MinDelay, MaxDelay: opts.MaxDelay,
			MaxTime: opts.MaxTime,
			Link:    link,
			Metrics: opts.Metrics, Spans: opts.Spans, Timeline: opts.Timeline,
			Lifetimes: lifetimes, Recovery: opts.Recovery,
		},
		Det:       core.Config{N: opts.N, T: opts.T, Protocol: opts.Protocol, Topology: resolveTopo(opts.Topology, opts.N)},
		App:       opts.NewApp,
		Reliable:  opts.Reliable,
		Byzantine: opts.Byzantine,
	}
	if opts.HeartbeatEvery > 0 {
		co.FD = func(ProcID) core.Component {
			return &fd.Heartbeat{Interval: opts.HeartbeatEvery, Timeout: opts.HeartbeatTimeout}
		}
	}
	return &Cluster{inner: cluster.New(co), opts: opts, plane: plane}
}

// resolveTopo builds the one shared *topo.Topology every detector in a
// cluster consumes, or nil for the complete graph (validated upstream, so
// MustNew cannot fail here).
func resolveTopo(sp *TopoSpec, n int) *topo.Topology {
	if sp == nil || sp.IsFull() {
		return nil
	}
	return topo.MustNew(*sp, n)
}

// Detector returns process p's detector (for state inspection after Run).
func (c *Cluster) Detector(p ProcID) *Detector { return c.inner.Detectors[p] }

// SuspectAt injects a spontaneous suspicion: at tick t, process i starts
// the detection protocol for j.
func (c *Cluster) SuspectAt(t int64, i, j ProcID) { c.inner.SuspectAt(t, i, j) }

// CrashAt injects a genuine crash of p at tick t.
func (c *Cluster) CrashAt(t int64, p ProcID) { c.inner.CrashAt(t, p) }

// Report is the outcome of a run.
type Report struct {
	// History is the full recorded history, including protocol traffic.
	History History
	// Abstract is the model-level history: protocol SUSP messages and
	// heartbeats removed. The sFS/FS properties are defined over this.
	Abstract History
	// Verdicts holds the Figure 1 checks (FS1, sFS2a-d) plus FS2 and the
	// Witness property, all evaluated on the appropriate history.
	Verdicts []Verdict
	// Quiescent reports whether the run drained completely (liveness
	// verdicts are only meaningful if so, or at a generous MaxTime).
	Quiescent bool
	// Sent and Delivered count message events in the full history.
	Sent, Delivered int
	// Dropped and Duplicated count the messages the fault plan discarded
	// and the extra copies it delivered (0 without Options.Faults).
	Dropped, Duplicated int
	// Retransmits and AckedDuplicates count the reliable-delivery layer's
	// work: frames resent on timer, and received duplicates suppressed
	// after re-acking (both 0 unless Options.Reliable is enabled).
	Retransmits, AckedDuplicates int
	// PlanCrashes, Restarts, and Recovered count the fault plan's process
	// faults: crashes executed, restarts that followed (per
	// Options.Recovery), and restarts that restored a non-empty durable
	// snapshot. All 0 unless the plan has process rules.
	PlanCrashes, Restarts, Recovered int
	// ByzDetected and ByzMasked count the validation interposer's work:
	// misbehavior convictions across all processes, and frames discarded
	// from convicted senders (both 0 unless Options.Byzantine is enabled).
	ByzDetected, ByzMasked int
	// Corrupted, Equivocated, and Replayed count the fault plan's Byzantine
	// fates: payloads mutated, equivocation variants substituted, and ghost
	// frames re-injected (all 0 unless the plan has Byz rules).
	Corrupted, Equivocated, Replayed int
	// EndTime is the virtual time at which the run ended.
	EndTime int64
	// Metrics is the run's full observability snapshot, name-sorted:
	// simulator counters, reliable-layer counters when the layer ran, and
	// — when Options.Faults was set — the fault plane's decision tallies.
	Metrics Metrics
	// Spans holds the recorded message-lifecycle spans, in record order
	// (nil unless Options.Spans was set).
	Spans []Span
	// Timeline holds the sampled per-tick series (nil unless
	// Options.Timeline was set).
	Timeline []TimelineSeries
}

// Run executes the simulation and checks the paper's properties.
func (c *Cluster) Run() Report {
	res := c.inner.Run()
	ab := res.History.DropTags(core.TagSusp, fd.TagHeartbeat, reliable.TagAck, byz.TagEcho)
	verdicts := checker.SFS(ab)
	verdicts = append(verdicts, checker.FS2(ab))
	verdicts = append(verdicts, checker.WitnessProperty(res.History, core.TagSusp, c.opts.T))
	metrics := res.Metrics
	if c.plane != nil {
		metrics = obs.Merge(metrics, c.plane.Metrics())
	}
	var spans []Span
	if c.opts.Spans != nil {
		spans = c.opts.Spans.Spans()
	}
	var corrupted, equivocated, replayed int64
	if c.plane != nil {
		corrupted, equivocated, replayed = c.plane.ByzFates()
	}
	return Report{
		History:         res.History,
		Abstract:        ab,
		Verdicts:        verdicts,
		Quiescent:       res.Quiescent(),
		Sent:            res.Sent,
		Delivered:       res.Delivered,
		Dropped:         res.Dropped,
		Duplicated:      res.Duplicated,
		Retransmits:     res.Retransmits,
		AckedDuplicates: res.AckedDuplicates,
		PlanCrashes:     res.PlanCrashes,
		Restarts:        res.Restarts,
		Recovered:       res.Recovered,
		ByzDetected:     res.ByzDetected,
		ByzMasked:       res.ByzMasked,
		Corrupted:       int(corrupted),
		Equivocated:     int(equivocated),
		Replayed:        int(replayed),
		EndTime:         res.EndTime,
		Metrics:         metrics,
		Spans:           spans,
		Timeline:        res.Timeline,
	}
}

// CheckSFS evaluates the Figure 1 conditions (FS1, sFS2a-d) on a
// model-level history.
func CheckSFS(h History) []Verdict { return checker.SFS(h) }

// CheckFS evaluates the fail-stop conditions (FS1, FS2).
func CheckFS(h History) []Verdict { return checker.FS(h) }

// CheckAll evaluates every property the checker knows, using suspTag to
// reconstruct quorum sets (use DefaultSuspTag for this package's clusters)
// and t as the failure bound for the Witness property.
func CheckAll(h History, suspTag string, t int) []Verdict {
	return checker.All(h, suspTag, t)
}

// DefaultSuspTag is the payload tag of the §5 protocol's "j failed"
// messages in recorded histories.
const DefaultSuspTag = core.TagSusp

// RewriteToFS produces a fail-stop history isomorphic (with respect to
// every process) to the given model-level history — the Theorem 5 witness —
// or an error if none exists (Theorem 3 situations, or detections whose
// target never crashed). The result is verified before being returned.
func RewriteToFS(h History) (History, error) {
	out, _, err := rewrite.Graph(h)
	if err != nil {
		return nil, err
	}
	if err := rewrite.Verify(h, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Realizable reports whether an isomorphic fail-stop history exists.
func Realizable(h History) bool { return rewrite.Realizable(h) }

// MinQuorum returns the minimum quorum size for n processes and up to t
// failures: the smallest integer exceeding n(t-1)/t (Theorem 7).
func MinQuorum(n, t int) int { return quorum.MinSize(n, t) }

// MaxTolerable returns the largest t such that minimum-quorum detection
// makes progress with n processes: the largest t with n > t² (Corollary 8).
func MaxTolerable(n int) int { return quorum.MaxTolerable(n) }

// FaultPlanNames lists the built-in network fault plans: "split-brain",
// "isolated-minority", "one-way-cut", "flaky-quorum", "healing-partition",
// "buffering-partition", "moving-partition", "region-cut",
// "byzantine-minority", "restart-storm".
func FaultPlanNames() []string { return netadv.BuiltinNames() }

// BuiltinFaultPlan instantiates the named built-in fault plan for a
// cluster of n processes with failure bound t.
func BuiltinFaultPlan(name string, n, t int) (FaultPlan, error) {
	g, ok := netadv.Builtin(name)
	if !ok {
		return FaultPlan{}, fmt.Errorf("failstop: unknown fault plan %q (have %v)", name, netadv.BuiltinNames())
	}
	return g.Make(n, t), nil
}

// ReadFaultPlan parses a fault plan from JSON — the plan-file format, which
// is the exact shape trace-v2 headers embed. The decode is strict (unknown
// fields are errors); call FaultPlan.Validate(n) before use, or let
// NewCluster/NewLiveCluster validate via Options.
func ReadFaultPlan(r io.Reader) (FaultPlan, error) { return netadv.ReadPlan(r) }

// LoadFaultPlan reads a fault plan from a JSON file; a plan with no name
// takes the file's base name. See ReadFaultPlan.
func LoadFaultPlan(path string) (FaultPlan, error) { return netadv.ReadPlanFile(path) }

// WriteFaultPlan writes the plan in the plan-file format (indented JSON) —
// the canonical way to turn a builtin into an editable file.
func WriteFaultPlan(w io.Writer, p FaultPlan) error { return netadv.WritePlan(w, p) }

// LiveOptions configures a live (goroutine) cluster.
type LiveOptions struct {
	// N is the number of processes; T the failure bound. As for Options.
	N, T int
	// Protocol selects the detection protocol. Default: SFS.
	Protocol Protocol
	// Seed seeds the delay generator.
	Seed int64
	// MinDelay/MaxDelay bound real message delays.
	// Defaults: 100µs and 2ms.
	MinDelay, MaxDelay time.Duration
	// Tick is the duration of one virtual tick (fault-plan times and timers
	// are expressed in ticks). Default: 1ms.
	Tick time.Duration
	// Topology, when non-nil and not the full mesh, runs the protocol over
	// a partial communication graph — identical semantics to
	// Options.Topology, so topology scenarios cross-validate between the
	// two backends.
	Topology *TopoSpec
	// Faults, when non-nil, subjects the live network to the given fault
	// plan — the identical plan semantics the simulator applies, so a
	// scenario validated deterministically in NewCluster can be replayed
	// against real goroutines.
	Faults *FaultPlan
	// Reliable, when Enabled, interposes the reliable-delivery layer under
	// every process — identical semantics to the simulated backend, with
	// retransmit timers running on real clocks (intervals are in ticks,
	// converted via Tick).
	Reliable ReliableOptions
	// Byzantine, when Enabled, interposes the validation layer under every
	// process — identical semantics to the simulated backend (see
	// Options.Byzantine).
	Byzantine ByzantineOptions
	// Recovery selects how the fault plan's process rules behave, with the
	// same semantics as Options.Recovery. Unbounded restart storms are fine
	// live: the run is bounded by Stop.
	Recovery RecoveryMode
	// RecoveryDir, when non-empty with RecoveryDurable, persists crash-time
	// snapshots as files under the given directory (one per process)
	// instead of the default in-memory store — state then survives restarts
	// of the host program, not just of simulated processes.
	RecoveryDir string
	// NewApp, when non-nil, builds the application for each process.
	NewApp func(p ProcID) App
	// Metrics, when non-nil, additionally registers the live counters in
	// the given registry; the same readings are available from
	// LiveCluster.Metrics either way.
	Metrics *MetricsRegistry
	// Spans, when non-nil, records sampled message-lifecycle spans. The
	// sampling function is the one the simulated backend uses, so a live
	// run and a simulated run of one scenario (same recorder seed and
	// rate) sample the same messages.
	Spans *SpanRecorder
	// MetricsAddr, when non-empty, serves the cluster's live metrics in
	// Prometheus text form at http://<addr>/metrics from Start to Stop.
	// Use "127.0.0.1:0" to bind an ephemeral port and read the actual
	// address from LiveCluster.MetricsAddr.
	MetricsAddr string
}

// LiveCluster runs the same protocol stack on real goroutines.
type LiveCluster struct {
	net   *runtime.Net
	dets  []*core.Detector
	eps   []*reliable.Endpoint // nil entries when the layer is off
	bzs   []*byz.Endpoint      // nil entries when the interposer is off
	plane *netadv.Plane        // nil without LiveOptions.Faults
	opts  LiveOptions
	msrv  *obshttp.Server // nil unless MetricsAddr is set and Start ran
}

// NewLiveCluster builds a live cluster. Call Start, drive it with Suspect
// and Crash, then Stop; History returns the recorded run at any point.
// Like NewCluster, it panics on invalid options (N < 2, ill-formed plan).
func NewLiveCluster(opts LiveOptions) *LiveCluster {
	if opts.T == 0 {
		opts.T = 1
	}
	if opts.Protocol == 0 {
		opts.Protocol = SFS
	}
	if opts.N < 2 {
		panic(fmt.Errorf("failstop: LiveOptions.N = %d; need at least 2 processes", opts.N))
	}
	if opts.Topology != nil {
		if _, err := topo.New(*opts.Topology, opts.N); err != nil {
			panic(fmt.Errorf("failstop: LiveOptions.Topology: %w", err))
		}
	}
	var link node.LinkFn
	var plane *netadv.Plane
	if opts.Faults != nil {
		if err := opts.Faults.Validate(opts.N); err != nil {
			panic(fmt.Errorf("failstop: LiveOptions.Faults: %w", err))
		}
		plane = netadv.NewPlane(*opts.Faults, opts.N, opts.Seed)
		plane.Register(opts.Metrics)
		link = plane.Decide
	}
	if err := opts.Reliable.Validate(); err != nil {
		panic(fmt.Errorf("failstop: LiveOptions.Reliable: %w", err))
	}
	if err := opts.Byzantine.Validate(); err != nil {
		panic(fmt.Errorf("failstop: LiveOptions.Byzantine: %w", err))
	}
	var lifetimes []recovery.Lifetime
	if opts.Faults != nil {
		lifetimes = opts.Faults.Lifetimes()
	}
	var store recovery.Store
	if opts.Recovery == RecoveryDurable && opts.RecoveryDir != "" {
		fs, err := recovery.NewFileStore(opts.RecoveryDir)
		if err != nil {
			panic(fmt.Errorf("failstop: LiveOptions.RecoveryDir: %w", err))
		}
		store = fs
	}
	net := runtime.New(runtime.Config{
		N: opts.N, Seed: opts.Seed,
		MinDelay: opts.MinDelay, MaxDelay: opts.MaxDelay,
		Tick:    opts.Tick,
		Link:    link,
		Metrics: opts.Metrics, Spans: opts.Spans,
		Lifetimes: lifetimes, Recovery: opts.Recovery, Store: store,
	})
	lc := &LiveCluster{
		net:   net,
		dets:  make([]*core.Detector, opts.N+1),
		eps:   make([]*reliable.Endpoint, opts.N+1),
		bzs:   make([]*byz.Endpoint, opts.N+1),
		plane: plane,
		opts:  opts,
	}
	top := resolveTopo(opts.Topology, opts.N)
	for p := 1; p <= opts.N; p++ {
		var app App
		if opts.NewApp != nil {
			app = opts.NewApp(ProcID(p))
		}
		d := core.NewDetector(core.Config{N: opts.N, T: opts.T, Protocol: opts.Protocol, Topology: top}, nil, app)
		lc.dets[p] = d
		var h node.Handler = d
		if opts.Byzantine.Enabled {
			bz := byz.Wrap(d, opts.Byzantine)
			bz.SetSpans(opts.Spans)
			bz.SetConvict(func(ctx node.Context, culprit ProcID) {
				d.Suspect(ctx, culprit)
			})
			lc.bzs[p] = bz
			h = bz
		}
		if opts.Reliable.Enabled {
			ep := reliable.Wrap(h, opts.Reliable)
			ep.SetSpans(opts.Spans)
			lc.eps[p] = ep
			h = ep
		}
		net.SetHandler(ProcID(p), h)
	}
	return lc
}

// Start launches the cluster's goroutines and, with
// LiveOptions.MetricsAddr set, the /metrics endpoint. It panics if the
// endpoint cannot bind — a misconfigured address should fail loudly at
// startup, not silently serve nothing.
func (lc *LiveCluster) Start() {
	lc.net.Start()
	if lc.opts.MetricsAddr != "" && lc.msrv == nil {
		srv, err := obshttp.Start(lc.opts.MetricsAddr, lc.Metrics)
		if err != nil {
			lc.net.Stop()
			panic(fmt.Errorf("failstop: LiveOptions.MetricsAddr: %w", err))
		}
		lc.msrv = srv
	}
}

// Stop shuts the cluster down and waits for its goroutines, closing the
// /metrics endpoint first so no scrape observes a stopped cluster.
func (lc *LiveCluster) Stop() {
	if lc.msrv != nil {
		_ = lc.msrv.Close()
		lc.msrv = nil
	}
	lc.net.Stop()
}

// Suspect makes process i suspect j (serialized with i's other events).
// The injected broadcast flows through i's reliable-delivery endpoint when
// the layer is enabled.
func (lc *LiveCluster) Suspect(i, j ProcID) {
	d := lc.dets[i]
	ep := lc.eps[i]
	bz := lc.bzs[i]
	lc.net.Do(i, func(ctx node.Context) {
		// Mirror the wrap order: the reliable layer is outermost, so its
		// context wraps first and the interposer's sends flow through it.
		if ep != nil {
			ctx = ep.Context(ctx)
		}
		if bz != nil {
			ctx = bz.Context(ctx)
		}
		d.Suspect(ctx, j)
	})
}

// Crash crashes process p.
func (lc *LiveCluster) Crash(p ProcID) {
	lc.net.Do(p, func(ctx node.Context) { ctx.CrashSelf() })
}

// History returns a snapshot of the recorded history.
func (lc *LiveCluster) History() History { return lc.net.History() }

// Metrics returns a name-sorted live snapshot of the cluster's counters:
// runtime traffic (net_sent_total, net_dropped_total, ...), process
// faults (net_plan_crashes_total, net_restarts_total, net_recovered_total)
// when the fault plan has process rules, reliable-layer and interposer
// work (reliable_retransmits_total, byz_detected_total, ...) when those
// layers are enabled, and — with LiveOptions.Faults — the fault plane's
// decision tallies. Safe to call while the cluster runs; it is what the
// /metrics endpoint serves.
func (lc *LiveCluster) Metrics() Metrics {
	ms := lc.net.Metrics()
	if lc.plane != nil {
		ms = obs.Merge(ms, lc.plane.Metrics())
	}
	return ms
}

// Spans returns a snapshot of the recorded message-lifecycle spans (nil
// unless LiveOptions.Spans was set).
func (lc *LiveCluster) Spans() []Span {
	if lc.opts.Spans == nil {
		return nil
	}
	return lc.opts.Spans.Spans()
}

// MetricsAddr returns the bound address of the live /metrics endpoint
// ("" when LiveOptions.MetricsAddr was unset or Start has not run).
func (lc *LiveCluster) MetricsAddr() string { return lc.msrv.Addr() }
