// Package sim is a deterministic discrete-event simulator of the paper's
// asynchronous system model: n processes, reliable unidirectional FIFO
// channels, unbounded message delay, no global clock visible to processes.
//
// Determinism: given the same Config (including Seed), handlers, and
// injected actions, Run produces the identical history every time. The
// scheduler orders occurrences by (virtual time, insertion sequence), and
// all randomness flows from the seeded generator.
//
// Adversaries: message delays are chosen per message by Config.Delay
// (default: uniform in [MinDelay, MaxDelay]). A negative delay parks the
// message — and, because channels are FIFO, everything behind it — for the
// rest of the run; this is how the Theorem 6 / Appendix A.3 schedules
// "delay messages indefinitely".
//
// Network faults: Config.Link generalizes the delay choice into a full
// link decision (node.LinkDecision): each send may additionally be dropped,
// duplicated, parked, or reordered past the channel tail. Send events are
// recorded unconditionally; dropped messages are simply never received, and
// each delivered copy records its own receive event. Histories from runs
// with loss remain model-valid (lost messages are sent-but-unreceived);
// duplication and reorder genuinely leave the reliable-FIFO-channel model
// and are flagged by model.History.Validate — which is the point of the
// lossy-links experiment family.
//
// Process faults: Config.Lifetimes schedules plan-driven crashes (and,
// under Config.Recovery, restarts) of whole processes. A down process
// loses every message that arrives during its downtime — links are
// datagrams to a dead socket, not buffers — and its timers die with it.
// A restart re-initializes the handler: blank under amnesia, from the
// crash-time snapshot (node.Restarter) under durable recovery. Under
// recovery mode Off every lifetime is terminal at its first crash, which
// is the fail-stop reading of the same plan.
//
// Receive gating: handlers implementing node.Gate can refuse the message at
// the head of a channel; the channel blocks until a later event of the
// receiver changes the gate's answer. This is the mechanism by which the
// §5 protocol defers receive events to satisfy sFS2d. A run that ends with
// gated channels still holding messages is reported as blocked, which is
// itself a measurable outcome (Corollary 8 experiments).
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// DelayFn chooses the delivery delay in ticks for a message sent at time at
// from from to to. Returning a negative value parks the message (and the
// channel behind it) for the remainder of the run.
type DelayFn func(from, to model.ProcID, p node.Payload, at int64) int64

// Config parameterizes a simulation.
type Config struct {
	// N is the number of processes (ids 1..N). Required.
	N int
	// Seed seeds the delay generator. Runs with equal seeds are identical.
	Seed int64
	// MinDelay and MaxDelay bound the default uniform message delay.
	// Defaults: 1 and 10.
	MinDelay, MaxDelay int64
	// Delay overrides the default delay distribution when non-nil.
	Delay DelayFn
	// Link, when non-nil, is consulted once per send and may drop, park,
	// delay, duplicate, or reorder the message (see node.LinkDecision).
	// Delay (or the default distribution) still chooses the base delay of
	// each delivered copy.
	Link node.LinkFn
	// MaxTime stops the simulation once the next occurrence would be later
	// than this horizon. 0 means no horizon (run to quiescence).
	MaxTime int64
	// MaxEvents caps the history length as a runaway-protocol safeguard.
	// Default: 1 << 20.
	MaxEvents int
	// Metrics, when non-nil, exposes the simulator's counters (and those of
	// attached layers) through a shared registry for live snapshots. The
	// same readings always appear in Result.Metrics, registry or not.
	Metrics *obs.Registry
	// Spans, when non-nil, records message-lifecycle spans
	// (send → fate → enqueue → deliver/drop, plus suspect and crash-confirm)
	// with causal parents and the recorder's seed-deterministic sampling.
	Spans *obs.SpanRecorder
	// Timeline, when non-nil, is sampled at its cadence with the in-flight
	// message count, the largest link backlog, and the cumulative suspicion
	// count as virtual time advances.
	Timeline *obs.Timeline
	// Lifetimes schedules plan-driven process crashes and restarts
	// (typically netadv.Plan.Lifetimes()). Each lifetime crashes its
	// process at Crash — and, when Period > 0, every Period ticks after
	// that, with Until bounding the crash times — and restarts it
	// Restart-Crash ticks after each crash when Recovery is not Off.
	// A lifetime with Restart == 0, or any lifetime under Recovery Off,
	// is terminal at its first crash. Unbounded lifetimes (Period > 0,
	// Until == 0) require a MaxTime horizon; New panics otherwise.
	Lifetimes []recovery.Lifetime
	// Recovery selects what a restarted process remembers: Off disables
	// restarts entirely, Amnesia restarts handlers blank (Init, or
	// OnRestart with nil state), Durable restores the snapshot taken at
	// crash time through Store.
	Recovery recovery.Mode
	// Store persists crash-time snapshots under Durable recovery. Nil
	// defaults to a fresh in-memory store private to this run.
	Store recovery.Store
}

// metricNames names the simulator's counters sim_sent_total and so on.
var metricNames = node.NewMetricNames("sim")

type chanKey struct{ from, to model.ProcID }

type pendingMsg struct {
	id      model.MsgID
	payload node.Payload
	readyAt int64 // delivery-ready time; -1 if parked forever
	span    int64 // enqueue span id; 0 when the message is unsampled
}

type channel struct {
	queue     []pendingMsg
	scheduled bool // a head-delivery occurrence is in the event queue
	gated     bool // head was refused by the receiver's gate
}

type occKind int

const (
	occDeliver occKind = iota + 1
	occTimer
	occInject
	occPlanCrash
	occRestart
)

type occurrence struct {
	time int64
	seq  int64 // insertion order; total tie-break
	kind occKind

	proc model.ProcID       // occDeliver (batch receiver), occTimer, occInject, occPlanCrash, occRestart
	name string             // occTimer
	gen  int64              // occTimer: generation, stale timers are skipped
	fn   func(node.Context) // occInject
	lt   int                // occPlanCrash, occRestart: Config.Lifetimes index
}

// dueKey identifies one batched-delivery occurrence: every channel head due
// at the same (time, receiver) coalesces into a single heap entry, so the
// event queue holds O(active receivers) delivery occurrences per tick
// instead of O(in-flight messages).
type dueKey struct {
	at int64
	to model.ProcID
}

// occHeap is a binary min-heap of occurrences ordered by (time, seq). It
// stores values, not pointers, and implements push/pop directly instead of
// through container/heap: the interface-based API boxes every occurrence
// into an allocation per push, which on the sweep hot path (one push per
// send, timer, and rescheduled delivery) dominated the per-run allocation
// budget.
type occHeap []occurrence

func (h occHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *occHeap) pushOcc(o occurrence) {
	q := append(*h, o)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *occHeap) popOcc() occurrence {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = occurrence{} // clear the vacated slot so name/fn don't pin memory
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(r, l) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return top
}

// StopReason states why a run ended. The zero value, StopDrained, means the
// event queue emptied; the horizon reasons distinguish a run truncated by
// the MaxTime clock from one truncated by the MaxEvents runaway-protocol
// cap — aggregation over large scenario sweeps needs to tell a genuinely
// bounded run from a runaway one.
type StopReason int

const (
	// StopDrained: the event queue emptied (messages may still sit in
	// gated or parked channels; see Result.Blocked and Result.Quiescent).
	StopDrained StopReason = iota
	// StopMaxTime: the next occurrence would have been later than
	// Config.MaxTime.
	StopMaxTime
	// StopMaxEvents: the history reached Config.MaxEvents.
	StopMaxEvents
)

// String renders the reason ("drained", "max-time", "max-events").
func (r StopReason) String() string {
	switch r {
	case StopDrained:
		return "drained"
	case StopMaxTime:
		return "max-time"
	case StopMaxEvents:
		return "max-events"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// MarshalText renders the reason name, so StopReason-keyed maps serialize
// as readable JSON objects in machine-readable sweep reports.
func (r StopReason) MarshalText() ([]byte, error) {
	return []byte(r.String()), nil
}

// UnmarshalText parses a reason name produced by MarshalText.
func (r *StopReason) UnmarshalText(text []byte) error {
	switch string(text) {
	case "drained":
		*r = StopDrained
	case "max-time":
		*r = StopMaxTime
	case "max-events":
		*r = StopMaxEvents
	default:
		return fmt.Errorf("sim: unknown stop reason %q", text)
	}
	return nil
}

// Reasons for BlockedChannel.Reason.
const (
	// ReasonGated: the receiver's gate refused the channel head.
	ReasonGated = "gated"
	// ReasonParked: the adversary held the channel head forever.
	ReasonParked = "parked"
	// ReasonReceiverCrashed: the receiver crashed; leftovers are expected.
	ReasonReceiverCrashed = "receiver-crashed"
)

// BlockedChannel describes a channel that still held undelivered messages
// when the run ended, and why.
type BlockedChannel struct {
	From, To model.ProcID
	Queued   int
	// Reason is ReasonGated, ReasonParked, or ReasonReceiverCrashed.
	Reason string
}

// Result is the outcome of a run.
type Result struct {
	// History is the recorded event history, validated by construction.
	History model.History
	// EndTime is the virtual time of the last executed occurrence.
	EndTime int64
	// Sent and Delivered count send and receive events.
	Sent, Delivered int
	// Dropped counts messages discarded by Config.Link; Duplicated counts
	// extra copies it injected.
	Dropped, Duplicated int
	// Retransmits and AckedDuplicates aggregate the reliable-delivery layer
	// across all processes, when handlers carry one (frames retransmitted,
	// and received duplicates suppressed after re-acking). Both are 0 when
	// the layer is disabled.
	Retransmits, AckedDuplicates int
	// PlanCrashes counts crashes executed from Config.Lifetimes; Restarts
	// counts the restarts that followed; Recovered counts restarts that
	// restored a non-empty durable snapshot. All are 0 without lifetimes.
	PlanCrashes, Restarts, Recovered int
	// ByzDetected and ByzMasked aggregate the Byzantine validation layer
	// across all processes, when handlers carry one (misbehavior convictions,
	// and frames discarded from convicted senders). Both are 0 when the
	// layer is disabled.
	ByzDetected, ByzMasked int
	// Blocked lists channels holding undelivered messages to live processes
	// at the end of the run (gated or parked) plus channels into crashed
	// processes. A run with gated entries did not reach protocol quiescence.
	Blocked []BlockedChannel
	// Stop states why the run ended: drained, max-time, or max-events.
	Stop StopReason
	// Metrics is the name-sorted snapshot of the run's instruments
	// (sim_* counters plus reliable_* and byz_* when those layers are
	// attached). It is always populated, independent of Config.Metrics.
	Metrics obs.Metrics
	// Timeline holds the sampled per-tick series when Config.Timeline was
	// set; nil otherwise.
	Timeline []obs.TimelineSeries
}

// HitHorizon reports that the run stopped at MaxTime or MaxEvents rather
// than by draining the event queue.
func (r *Result) HitHorizon() bool { return r.Stop != StopDrained }

// BlockedLive reports whether the run ended with messages stuck in gated
// or parked channels to live processes (messages to crashed processes are
// expected leftovers and do not count).
func (r *Result) BlockedLive() bool {
	for _, b := range r.Blocked {
		if b.Reason != ReasonReceiverCrashed {
			return true
		}
	}
	return false
}

// Quiescent reports whether the run drained completely: no horizon hit and
// nothing stuck in gated or parked channels.
func (r *Result) Quiescent() bool {
	return !r.HitHorizon() && !r.BlockedLive()
}

// Sim is a single-use simulator instance: configure, attach handlers,
// inject actions, then call Run exactly once.
type Sim struct {
	cfg      Config
	rng      *rand.Rand
	handlers []node.Handler // index 1..N
	ctxs     []*procCtx
	chans    map[chanKey]*channel
	queue    occHeap
	now      int64
	seq      int64
	nextMsg  model.MsgID
	history  model.History
	crashed  []bool
	down     []bool // plan-crashed, restart possibly pending (crash-recovery)
	failed   map[[2]model.ProcID]bool
	timerGen map[timerID]int64
	ran      bool

	due       map[dueKey][]model.ProcID // senders whose channel heads are due at (time, receiver)
	batchFree [][]model.ProcID          // recycled sender slices for due batches
	gatedFrom [][]model.ProcID          // per-receiver senders of gated channels

	// wire is the send pipeline shared with the live runtime; its counters,
	// like gLinks, live inline as values: zero-cost when no registry is
	// attached, registered by pointer into Config.Metrics otherwise.
	wire   node.Wire
	gLinks obs.Gauge // live (materialized) channel count

	curSpan    int64 // span framing the handler callback now running, or 0
	inflight   int   // enqueued-but-undelivered message copies
	suspects   int64 // cumulative suspect internal events
	lastSample int64 // last timeline boundary sampled
}

// New creates a simulator for cfg.N processes. Handlers must be attached
// with SetHandler before Run.
func New(cfg Config) *Sim {
	if cfg.N <= 0 {
		panic("sim: Config.N must be positive")
	}
	if cfg.MinDelay == 0 && cfg.MaxDelay == 0 {
		cfg.MinDelay, cfg.MaxDelay = 1, 10
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 1 << 20
	}
	for i, l := range cfg.Lifetimes {
		if l.Proc < 1 || int(l.Proc) > cfg.N {
			panic(fmt.Sprintf("sim: lifetime %d names process %d of %d", i, l.Proc, cfg.N))
		}
		if l.Unbounded() && cfg.Recovery != recovery.Off && cfg.MaxTime <= 0 {
			panic(fmt.Sprintf("sim: lifetime %d is unbounded (period %d, no until); set MaxTime", i, l.Period))
		}
	}
	if cfg.Recovery == recovery.Durable && cfg.Store == nil {
		cfg.Store = recovery.NewMemStore()
	}
	s := &Sim{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		// Per-link state is lazy: a channel materializes on first traffic,
		// so a sparse topology over a large N allocates O(active links), not
		// the O(N²) a full-mesh presize would.
		chans:     make(map[chanKey]*channel),
		handlers:  make([]node.Handler, cfg.N+1),
		ctxs:      make([]*procCtx, cfg.N+1),
		queue:     make(occHeap, 0, 64),
		history:   make(model.History, 0, historyHint(cfg)),
		crashed:   make([]bool, cfg.N+1),
		down:      make([]bool, cfg.N+1),
		failed:    make(map[[2]model.ProcID]bool),
		timerGen:  make(map[timerID]int64, 16),
		due:       make(map[dueKey][]model.ProcID),
		gatedFrom: make([][]model.ProcID, cfg.N+1),
		wire:      node.Wire{Link: cfg.Link, Spans: cfg.Spans},
	}
	for p := 1; p <= cfg.N; p++ {
		s.ctxs[p] = &procCtx{s: s, p: model.ProcID(p)}
	}
	if reg := cfg.Metrics; reg != nil {
		reg.RegisterGauge("sim_links_live", &s.gLinks)
		s.wire.Register(reg, metricNames, len(cfg.Lifetimes) > 0)
	}
	return s
}

// historyHint sizes the history buffer up front. Protocol runs record on
// the order of a few broadcast rounds per detection — O(n²) events — so
// 8n² covers the common sweep scenario without reallocation; the cap keeps
// a single short run from reserving a MaxEvents-sized arena.
func historyHint(cfg Config) int {
	hint := 8 * cfg.N * cfg.N
	if hint > cfg.MaxEvents {
		hint = cfg.MaxEvents
	}
	if hint > 1<<13 {
		hint = 1 << 13
	}
	return hint
}

// SetHandler attaches the handler for process p (1..N).
func (s *Sim) SetHandler(p model.ProcID, h node.Handler) {
	s.handlers[p] = h
}

// Handler returns the handler attached to p.
func (s *Sim) Handler(p model.ProcID) node.Handler { return s.handlers[p] }

// At schedules fn to run in the context of process p at virtual time t.
// If p has crashed by then, fn is skipped. Injections at equal times run in
// the order they were registered.
func (s *Sim) At(t int64, p model.ProcID, fn func(node.Context)) {
	s.push(occurrence{time: t, kind: occInject, proc: p, fn: fn})
}

// CrashAt injects a genuine (spontaneous) crash of p at time t.
func (s *Sim) CrashAt(t int64, p model.ProcID) {
	s.At(t, p, func(ctx node.Context) { ctx.CrashSelf() })
}

func (s *Sim) push(o occurrence) {
	o.seq = s.seq
	s.seq++
	s.queue.pushOcc(o)
}

// Run executes the simulation to quiescence or horizon and returns the
// result. Run may be called only once.
func (s *Sim) Run() *Result {
	if s.ran {
		panic("sim: Run called twice")
	}
	s.ran = true
	for p := 1; p <= s.cfg.N; p++ {
		if s.handlers[p] == nil {
			panic(fmt.Sprintf("sim: no handler for process %d", p))
		}
	}

	res := &Result{}
	for i, l := range s.cfg.Lifetimes {
		s.push(occurrence{time: l.Crash, kind: occPlanCrash, proc: l.Proc, lt: i})
	}
	for p := model.ProcID(1); int(p) <= s.cfg.N; p++ {
		s.handlers[p].Init(s.ctxs[p])
		s.afterEvent(p)
	}

	for len(s.queue) > 0 {
		if len(s.history) >= s.cfg.MaxEvents {
			res.Stop = StopMaxEvents
			break
		}
		o := s.queue.popOcc()
		if s.cfg.MaxTime > 0 && o.time > s.cfg.MaxTime {
			res.Stop = StopMaxTime
			break
		}
		if o.time > s.now {
			if s.cfg.Timeline != nil {
				s.sampleTimeline(o.time)
			}
			s.now = o.time
		}
		switch o.kind {
		case occDeliver:
			s.deliverBatch(o.proc)
		case occTimer:
			s.fireTimer(o)
		case occInject:
			if !s.crashed[o.proc] && !s.down[o.proc] {
				o.fn(s.ctxs[o.proc])
				s.afterEvent(o.proc)
			}
		case occPlanCrash:
			s.planCrash(o)
		case occRestart:
			s.restart(o)
		}
	}

	res.History = s.history.Normalize()
	res.EndTime = s.now
	c := &s.wire.Counters
	res.Sent = int(c.Sent.Value())
	res.Delivered = int(c.Delivered.Value())
	res.Dropped = int(c.Dropped.Value())
	res.Duplicated = int(c.Duplicated.Value())
	res.PlanCrashes = int(c.PlanCrashes.Value())
	res.Restarts = int(c.Restarts.Value())
	res.Recovered = int(c.Recovered.Value())
	res.Blocked = s.blockedChannels()
	l := node.LayerStats(s.handlers)
	res.Retransmits, res.AckedDuplicates = l.Retransmits, l.AckedDuplicates
	res.ByzDetected, res.ByzMasked = l.ByzDetected, l.ByzMasked
	res.Metrics = c.Snapshot(metricNames, len(s.cfg.Lifetimes) > 0, l,
		obs.Metric{Name: "sim_links_live", Kind: obs.KindGauge, Value: s.gLinks.Value()})
	if s.cfg.Timeline != nil {
		res.Timeline = s.cfg.Timeline.Snapshot()
	}
	return res
}

// sampleTimeline emits one point per series at every sampling boundary
// crossed by the jump from s.now to next.
func (s *Sim) sampleTimeline(next int64) {
	tl := s.cfg.Timeline
	every := tl.Every()
	for t := s.lastSample + every; t <= next; t += every {
		tl.Observe("inflight", t, float64(s.inflight))
		tl.Observe("link_backlog_max", t, float64(s.maxBacklog()))
		tl.Observe("suspects_total", t, float64(s.suspects))
		s.lastSample = t
	}
}

// maxBacklog returns the deepest link queue. A maximum is order-free, so
// ranging the channel map directly is deterministic.
func (s *Sim) maxBacklog() int {
	mx := 0
	//sfs:allow detmaprange a maximum over queue depths is order-insensitive
	for _, c := range s.chans {
		if len(c.queue) > mx {
			mx = len(c.queue)
		}
	}
	return mx
}

func (s *Sim) blockedChannels() []BlockedChannel {
	var out []BlockedChannel
	var keys []chanKey
	for k, c := range s.chans {
		if len(c.queue) > 0 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b chanKey) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	for _, k := range keys {
		c := s.chans[k]
		reason := ReasonGated
		switch {
		// A process that is down at the end of the run is as gone as a
		// crashed one: its leftovers are expected, not a liveness failure.
		case s.crashed[k.to] || s.down[k.to]:
			reason = ReasonReceiverCrashed
		case c.queue[0].readyAt < 0:
			reason = ReasonParked
		}
		out = append(out, BlockedChannel{From: k.from, To: k.to, Queued: len(c.queue), Reason: reason})
	}
	return out
}

// scheduleDelivery enqueues channel k's head delivery at time at.
// Deliveries sharing a (time, receiver) coalesce into one occurrence and
// drain in ascending sender order — deterministic, and independent of the
// order the batch was assembled in.
func (s *Sim) scheduleDelivery(k chanKey, at int64) {
	key := dueKey{at: at, to: k.to}
	senders, ok := s.due[key]
	if !ok {
		if n := len(s.batchFree); n > 0 {
			senders = s.batchFree[n-1][:0]
			s.batchFree = s.batchFree[:n-1]
		}
		s.push(occurrence{time: at, kind: occDeliver, proc: k.to})
	}
	s.due[key] = append(senders, k.from)
}

// deliverBatch drains every channel head due for receiver to at the current
// time. A head rescheduled to the same tick during the drain (the next
// message of a channel whose head just delivered, or a channel un-gated by
// one of these deliveries) opens a fresh batch behind this one.
func (s *Sim) deliverBatch(to model.ProcID) {
	key := dueKey{at: s.now, to: to}
	senders := s.due[key]
	delete(s.due, key)
	slices.Sort(senders)
	for _, from := range senders {
		s.deliver(chanKey{from: from, to: to})
	}
	if senders != nil {
		s.batchFree = append(s.batchFree, senders[:0])
	}
}

// deliver attempts to deliver the head of channel k.
func (s *Sim) deliver(k chanKey) {
	c := s.chans[k]
	if c == nil {
		return
	}
	c.scheduled = false
	if len(c.queue) == 0 || s.crashed[k.to] {
		return
	}
	head := c.queue[0]
	// A reordered enqueue can put a not-yet-ready (or parked) message in
	// front of the one this occurrence was scheduled for: re-anchor on the
	// current head's ready time instead of delivering early.
	if head.readyAt < 0 {
		return // parked head; channel blocks
	}
	if head.readyAt > s.now {
		c.scheduled = true
		s.scheduleDelivery(k, head.readyAt)
		return
	}
	if s.down[k.to] {
		// The message arrives while the receiver is down: it is lost, the
		// way a datagram to a dead socket is. Messages still in flight may
		// yet land after a restart, so loss is decided per arrival, here.
		c.queue = c.queue[1:]
		s.inflight--
		if head.span != 0 {
			s.cfg.Spans.Record(obs.Span{
				Parent: head.span, Time: s.now, Kind: obs.SpanDrop,
				Proc: k.to, Peer: k.from, Msg: head.id, Note: "receiver down",
			})
		}
		s.scheduleHead(k)
		return
	}
	h := s.handlers[k.to]
	if g, ok := h.(node.Gate); ok && !g.Accepts(k.from, head.payload) {
		c.gated = true
		s.gatedFrom[k.to] = append(s.gatedFrom[k.to], k.from)
		return
	}
	c.gated = false
	c.queue = c.queue[1:]
	s.record(model.Recv(k.to, k.from, head.id, head.payload.Tag, head.payload.Subject))
	s.wire.Delivered.Inc()
	s.inflight--
	prevSpan := s.curSpan
	if head.span != 0 {
		s.curSpan = s.cfg.Spans.Record(obs.Span{
			Parent: head.span, Time: s.now, Kind: obs.SpanDeliver,
			Proc: k.to, Peer: k.from, Msg: head.id, Tag: head.payload.Tag,
		})
	} else {
		s.curSpan = 0
	}
	s.scheduleHead(k)
	h.OnMessage(s.ctxs[k.to], k.from, head.payload)
	s.afterEvent(k.to)
	s.curSpan = prevSpan
}

// afterEvent re-evaluates gated channels into p after any event of p: the
// gate's answer may have changed (e.g. a detection completed). Gated
// channels are tracked per receiver, so the pass costs O(channels gated
// into p), not a scan of every live link in the run.
func (s *Sim) afterEvent(p model.ProcID) {
	if s.crashed[p] || s.down[p] {
		return
	}
	pending := s.gatedFrom[p]
	if len(pending) == 0 {
		return
	}
	slices.Sort(pending)
	g, isGate := s.handlers[p].(node.Gate)
	still := pending[:0]
	for _, from := range pending {
		k := chanKey{from: from, to: p}
		c := s.chans[k]
		if c == nil || !c.gated || len(c.queue) == 0 {
			continue // stale entry; the channel was un-gated or drained
		}
		if isGate && !g.Accepts(from, c.queue[0].payload) {
			still = append(still, from)
			continue
		}
		c.gated = false
		if !c.scheduled {
			c.scheduled = true
			s.scheduleDelivery(k, s.now)
		}
	}
	s.gatedFrom[p] = still
}

// scheduleHead queues a delivery occurrence for the head of channel k, if
// any and not parked.
func (s *Sim) scheduleHead(k chanKey) {
	c := s.chans[k]
	if c == nil || c.scheduled || c.gated || len(c.queue) == 0 || s.crashed[k.to] {
		return
	}
	head := c.queue[0]
	if head.readyAt < 0 {
		return // parked forever
	}
	at := head.readyAt
	if at < s.now {
		at = s.now
	}
	c.scheduled = true
	s.scheduleDelivery(k, at)
}

func (s *Sim) fireTimer(o occurrence) {
	if s.crashed[o.proc] || s.down[o.proc] {
		return
	}
	key := timerID{proc: o.proc, name: o.name}
	if s.timerGen[key] != o.gen {
		return // cancelled or replaced
	}
	delete(s.timerGen, key)
	s.wire.TimersFired.Inc()
	s.handlers[o.proc].OnTimer(s.ctxs[o.proc], o.name)
	s.afterEvent(o.proc)
}

// timerID keys the per-process timer generation table. A struct key avoids
// the string concatenation the old "proc/name" key allocated on every
// SetTimer, CancelTimer, and timer fire.
type timerID struct {
	proc model.ProcID
	name string
}

// planCrash executes one crash window of a lifetime: snapshot (durable),
// take the process down, kill its timers, record the crash, and schedule
// the matching restart and — for periodic lifetimes — the next window.
// A process that already crashed terminally (CrashSelf) or is still down
// from an earlier window skips the whole window, restart included.
func (s *Sim) planCrash(o occurrence) {
	l := s.cfg.Lifetimes[o.lt]
	p := l.Proc
	if s.crashed[p] || s.down[p] {
		return
	}
	mode := s.cfg.Recovery
	if l.Period > 0 && mode != recovery.Off {
		if next := o.time + l.Period; l.Until == 0 || next <= l.Until {
			s.push(occurrence{time: next, kind: occPlanCrash, proc: p, lt: o.lt})
		}
	}
	if mode == recovery.Durable {
		// Snapshot before OnCrash: the crash notification must not be able
		// to perturb what the process will remember.
		if r, ok := s.handlers[p].(node.Restarter); ok {
			s.cfg.Store.Save(p, r.Snapshot())
		}
	}
	if downFor := l.Restart - l.Crash; mode != recovery.Off && downFor > 0 {
		s.push(occurrence{time: o.time + downFor, kind: occRestart, proc: p, lt: o.lt})
	}
	s.down[p] = true
	s.wire.PlanCrashes.Inc()
	//sfs:allow detmaprange each timer generation is bumped independently
	for k := range s.timerGen {
		if k.proc == p {
			s.timerGen[k]++ // outstanding timer occurrences become stale
		}
	}
	s.record(model.Crash(p))
	if lis, ok := s.handlers[p].(node.CrashListener); ok {
		lis.OnCrash(s.ctxs[p])
	}
}

// restart brings a down process back: record the restart event, then hand
// the handler its crash-time snapshot (node.Restarter, durable) or
// re-initialize it blank (amnesia, or a handler with no restart support).
func (s *Sim) restart(o occurrence) {
	p := o.proc
	if s.crashed[p] || !s.down[p] {
		return
	}
	s.down[p] = false
	var st []byte
	if s.cfg.Recovery == recovery.Durable {
		st, _ = s.cfg.Store.Load(p)
	}
	s.record(model.Restart(p))
	s.wire.Restarts.Inc()
	if len(st) > 0 {
		s.wire.Recovered.Inc()
	}
	// Restart spans are detection-grade: rare, and exactly what recovery
	// experiments grep for — never sampled out.
	if s.cfg.Spans != nil {
		note := "recovery=" + s.cfg.Recovery.String()
		if s.cfg.Recovery == recovery.Durable {
			note = fmt.Sprintf("%s snapshot=%dB", note, len(st))
		}
		s.cfg.Spans.Record(obs.Span{Time: s.now, Kind: obs.SpanRestart, Proc: p, Note: note})
	}
	if r, ok := s.handlers[p].(node.Restarter); ok {
		r.OnRestart(s.ctxs[p], st)
	} else {
		s.handlers[p].Init(s.ctxs[p])
	}
	s.afterEvent(p)
}

func (s *Sim) record(e model.Event) {
	e.Time = s.now
	e.Seq = len(s.history)
	s.history = append(s.history, e)
	switch {
	case e.Kind == model.KindInternal && e.Tag == "suspect":
		s.suspects++
		// Detection spans are recorded unconditionally: they are rare and
		// are the events the paper's properties are about.
		if s.cfg.Spans != nil {
			s.cfg.Spans.Record(obs.Span{
				Parent: s.curSpan, Time: s.now, Kind: obs.SpanSuspect,
				Proc: e.Proc, Target: e.Target, Tag: e.Tag,
			})
		}
	case e.Kind == model.KindFailed:
		if s.cfg.Spans != nil {
			s.cfg.Spans.Record(obs.Span{
				Parent: s.curSpan, Time: s.now, Kind: obs.SpanCrashConfirm,
				Proc: e.Proc, Target: e.Target,
			})
		}
	}
}

// procCtx implements node.Context for one process.
type procCtx struct {
	s *Sim
	p model.ProcID
}

var _ node.Context = (*procCtx)(nil)

func (c *procCtx) Self() model.ProcID { return c.p }
func (c *procCtx) N() int             { return c.s.cfg.N }
func (c *procCtx) Now() int64         { return c.s.now }

func (c *procCtx) Send(to model.ProcID, p node.Payload) {
	s := c.s
	if s.crashed[c.p] || s.down[c.p] {
		return
	}
	if to == c.p {
		panic("sim: send to self not supported (count self-quorum locally)")
	}
	if to < 1 || int(to) > s.cfg.N {
		panic(fmt.Sprintf("sim: send to invalid process %d", to))
	}
	s.nextMsg++
	id := s.nextMsg
	s.record(model.Send(c.p, to, id, p.Tag, p.Subject))

	k := chanKey{from: c.p, to: to}
	var ch *channel
	headChanged := false
	s.wire.Send(c.p, to, id, p, s.now, s.curSpan, func(cp node.Copy) {
		if ch == nil {
			if ch = s.chans[k]; ch == nil {
				// A fresh channel rarely holds more than a few in-flight
				// messages; seeding capacity avoids the first few append
				// growth steps on every (sender, receiver) pair of every run.
				ch = &channel{queue: make([]pendingMsg, 0, 8)}
				s.chans[k] = ch
				s.gLinks.Set(int64(len(s.chans)))
			}
		}
		var delay int64
		if s.cfg.Delay != nil {
			delay = s.cfg.Delay(c.p, to, p, s.now)
		} else {
			delay = s.cfg.MinDelay + s.rng.Int63n(s.cfg.MaxDelay-s.cfg.MinDelay+1)
		}
		ready := int64(-1)
		if delay >= 0 && !cp.Park {
			ready = s.now + delay + cp.Extra
		}
		s.inflight++
		headChanged = headChanged || len(ch.queue) == 0
		ch.queue = node.Enqueue(ch.queue, pendingMsg{id: id, payload: cp.Payload, readyAt: ready, span: cp.Span}, cp.Reorder)
	})
	if headChanged {
		s.scheduleHead(k)
	}
}

func (c *procCtx) SetTimer(name string, delay int64) {
	s := c.s
	if s.crashed[c.p] || s.down[c.p] {
		return
	}
	key := timerID{proc: c.p, name: name}
	gen := s.timerGen[key] + 1
	s.timerGen[key] = gen
	s.push(occurrence{time: s.now + delay, kind: occTimer, proc: c.p, name: name, gen: gen})
}

func (c *procCtx) CancelTimer(name string) {
	key := timerID{proc: c.p, name: name}
	if _, ok := c.s.timerGen[key]; ok {
		c.s.timerGen[key]++ // outstanding occurrence becomes stale
	}
}

func (c *procCtx) EmitFailed(j model.ProcID) {
	s := c.s
	if s.crashed[c.p] || s.down[c.p] {
		return
	}
	key := [2]model.ProcID{c.p, j}
	if s.failed[key] {
		return // failed_i(j) is single-shot
	}
	s.failed[key] = true
	s.record(model.Failed(c.p, j))
}

func (c *procCtx) CrashSelf() {
	s := c.s
	if s.crashed[c.p] || s.down[c.p] {
		return
	}
	s.record(model.Crash(c.p))
	s.crashed[c.p] = true
	if l, ok := s.handlers[c.p].(node.CrashListener); ok {
		l.OnCrash(c)
	}
}

func (c *procCtx) EmitInternal(tag string, subject model.ProcID) {
	s := c.s
	if s.crashed[c.p] || s.down[c.p] {
		return
	}
	s.record(model.Internal(c.p, tag, subject))
}
