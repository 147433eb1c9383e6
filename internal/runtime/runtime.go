// Package runtime is the live counterpart of internal/sim: the same
// node.Handler/node.Context contract, executed by real goroutines over
// mutex-guarded FIFO queues with randomized real-time delays, instead of a
// deterministic virtual-time scheduler.
//
// It exists to show that the protocol stack is a real implementation, not a
// simulator artifact: the §5 detector, fd layer, and applications run here
// unchanged. Runs are nondeterministic, so tests against the runtime assert
// only schedule-independent properties (the sFS conditions hold on the
// recorded history of every schedule).
//
// Concurrency design: one worker goroutine per process delivers messages
// and timers serially, so handler callbacks are never concurrent for the
// same process. Senders enqueue onto per-channel FIFO queues with a
// delivery-ready timestamp; the worker picks the earliest ready channel
// head its gate accepts. A global recorder assigns history order by lock
// acquisition, which is consistent with every per-process and per-channel
// order — recorded histories are valid model histories.
package runtime

//sfs:allow detwallclock live backend: real time is this package's whole point — ticks, delays, and timers are wall-clock by design

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
)

// metricNames names the runtime's counters net_sent_total and so on.
var metricNames = node.NewMetricNames("net")

// Config parameterizes a live network.
type Config struct {
	// N is the number of processes. Required.
	N int
	// Seed seeds the delay generator.
	Seed int64
	// MinDelay and MaxDelay bound the uniform per-message delivery delay.
	// Defaults: 100µs and 2ms.
	MinDelay, MaxDelay time.Duration
	// Tick is the duration of one virtual tick for node.Context.Now and
	// SetTimer. Default: 1ms.
	Tick time.Duration
	// Link, when non-nil, is consulted once per send and may drop, park,
	// delay, duplicate, or reorder the message (see node.LinkDecision) —
	// the same transport hook the deterministic simulator honors, so one
	// fault plan drives both backends with identical semantics. Decision
	// times are in ticks; ExtraDelay is converted via Tick.
	Link node.LinkFn
	// Metrics, when non-nil, exposes the runtime's counters through a
	// shared registry — the backing store of the /metrics endpoint. The
	// same readings are available from Net.Metrics either way.
	Metrics *obs.Registry
	// Spans, when non-nil, records message-lifecycle spans with the same
	// kinds and sampling rule as the simulator, so span sequences are
	// comparable across backends.
	Spans *obs.SpanRecorder
	// Lifetimes schedules plan-driven process crashes and restarts with
	// the same semantics as the simulator's Config.Lifetimes; times are in
	// ticks. A down process loses every message that arrives during its
	// downtime and its timers die with it. Unbounded lifetimes are fine
	// here: live runs are bounded by Stop, not by a virtual horizon.
	Lifetimes []recovery.Lifetime
	// Recovery selects what a restarted process remembers: Off disables
	// restarts entirely (every lifetime is terminal at its first crash),
	// Amnesia restarts handlers blank, Durable restores the crash-time
	// snapshot through Store.
	Recovery recovery.Mode
	// Store persists crash-time snapshots under Durable recovery. Nil
	// defaults to a fresh in-memory store; pass a recovery.FileStore to
	// survive whole-process restarts of the host program.
	Store recovery.Store
}

// Net is a live network of processes. Attach handlers, Start, then Stop.
type Net struct {
	cfg      Config
	start    time.Time
	handlers []node.Handler
	procs    []*proc

	recMu   sync.Mutex
	history model.History
	nextMsg model.MsgID

	// wire is the send pipeline shared with the simulator. Its counters
	// are atomic, so they are read live (Metrics, the /metrics endpoint)
	// without touching the recorder lock.
	wire node.Wire

	rngMu sync.Mutex
	rng   *rand.Rand

	wg          sync.WaitGroup
	stopCh      chan struct{}
	started     bool
	stopped     bool
	faultTimers []*time.Timer // outstanding lifetime crash/restart timers
	mu          sync.Mutex
}

// New creates a live network.
func New(cfg Config) *Net {
	if cfg.N <= 0 {
		panic("runtime: Config.N must be positive")
	}
	if cfg.MinDelay == 0 && cfg.MaxDelay == 0 {
		cfg.MinDelay, cfg.MaxDelay = 100*time.Microsecond, 2*time.Millisecond
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	for i, l := range cfg.Lifetimes {
		if l.Proc < 1 || int(l.Proc) > cfg.N {
			panic(fmt.Sprintf("runtime: lifetime %d names process %d of %d", i, l.Proc, cfg.N))
		}
	}
	if cfg.Recovery == recovery.Durable && cfg.Store == nil {
		cfg.Store = recovery.NewMemStore()
	}
	n := &Net{
		cfg:      cfg,
		handlers: make([]node.Handler, cfg.N+1),
		procs:    make([]*proc, cfg.N+1),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stopCh:   make(chan struct{}),
		wire:     node.Wire{Link: cfg.Link, Spans: cfg.Spans},
	}
	for p := 1; p <= cfg.N; p++ {
		n.procs[p] = newProc(n, model.ProcID(p))
	}
	n.wire.Register(cfg.Metrics, metricNames, len(cfg.Lifetimes) > 0)
	return n
}

// SetHandler attaches the handler for process p. Must be called before
// Start.
func (n *Net) SetHandler(p model.ProcID, h node.Handler) {
	n.handlers[p] = h
}

// Start initializes every handler and launches the worker goroutines.
func (n *Net) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		panic("runtime: Start called twice")
	}
	n.started = true
	n.start = time.Now()
	n.mu.Unlock()
	for p := 1; p <= n.cfg.N; p++ {
		if n.handlers[p] == nil {
			panic(fmt.Sprintf("runtime: no handler for process %d", p))
		}
	}
	for p := 1; p <= n.cfg.N; p++ {
		n.procs[p].ctxDo(func(ctx node.Context) { n.handlers[p].Init(ctx) })
	}
	for p := 1; p <= n.cfg.N; p++ {
		n.wg.Add(1)
		go n.procs[p].loop(&n.wg)
	}
	for i := range n.cfg.Lifetimes {
		idx, l := i, n.cfg.Lifetimes[i]
		n.afterTicks(l.Crash, func() { n.planCrash(idx, l.Crash) })
	}
}

// Stop terminates the workers and waits for them to exit. Idempotent.
func (n *Net) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	timers := n.faultTimers
	n.faultTimers = nil
	n.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	close(n.stopCh)
	for p := 1; p <= n.cfg.N; p++ {
		n.procs[p].wake()
	}
	n.wg.Wait()
}

// Run is a convenience for examples: Start, let the network run for d,
// then Stop and return the recorded history.
func (n *Net) Run(d time.Duration) model.History {
	n.Start()
	time.Sleep(d)
	n.Stop()
	return n.History()
}

// History returns a snapshot of the recorded history.
func (n *Net) History() model.History {
	n.recMu.Lock()
	defer n.recMu.Unlock()
	return n.history.Clone().Normalize()
}

// Do runs fn in the context of process p (serialized with its deliveries),
// e.g. to inject a suspicion: net.Do(2, func(ctx){ det.Suspect(ctx, 1) }).
// It is a no-op if p has crashed.
func (n *Net) Do(p model.ProcID, fn func(node.Context)) {
	n.procs[p].inject(fn)
}

func (n *Net) nowTicks() int64 {
	return int64(time.Since(n.start) / n.cfg.Tick)
}

func (n *Net) record(e model.Event) {
	n.recMu.Lock()
	e.Time = n.nowTicks()
	e.Seq = len(n.history)
	n.history = append(n.history, e)
	n.recMu.Unlock()
}

func (n *Net) delay() time.Duration {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	span := int64(n.cfg.MaxDelay - n.cfg.MinDelay)
	if span <= 0 {
		return n.cfg.MinDelay
	}
	return n.cfg.MinDelay + time.Duration(n.rng.Int63n(span+1))
}

// Metrics returns a name-sorted live snapshot of the runtime's counters,
// including the reliable and byz layers' when any handler carries them.
// It holds the same names as the simulator's Result.Metrics with the net_
// prefix for sim_, less the simulator-only sim_links_live. Safe to call
// while the network runs.
func (n *Net) Metrics() obs.Metrics {
	return n.wire.Snapshot(metricNames, len(n.cfg.Lifetimes) > 0, node.LayerStats(n.handlers))
}

// afterTicks schedules fn after d ticks, retaining the timer so Stop can
// cancel the fault plan's outstanding work. No-op once the net stopped.
func (n *Net) afterTicks(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	t := time.AfterFunc(time.Duration(d)*n.cfg.Tick, fn)
	n.faultTimers = append(n.faultTimers, t)
	n.mu.Unlock()
}

// planCrash routes one crash window of lifetime idx through the victim's
// injection queue, so the crash serializes with its handler callbacks (a
// durable snapshot must not race a half-applied message). The inject is
// silently dropped if the process crashed terminally first — which also
// stops the periodic chain, matching the simulator.
func (n *Net) planCrash(idx int, at int64) {
	l := n.cfg.Lifetimes[idx]
	p := n.procs[l.Proc]
	p.inject(func(node.Context) { n.executePlanCrash(idx, at, p, l) })
}

// executePlanCrash runs on the victim's worker: snapshot (durable), take
// the process down, kill timers and queued work, record the crash, then
// schedule the restart and the next periodic window.
func (n *Net) executePlanCrash(idx int, at int64, p *proc, l recovery.Lifetime) {
	mode := n.cfg.Recovery
	if mode == recovery.Durable {
		// Snapshot before OnCrash: the crash notification must not be able
		// to perturb what the process will remember.
		if r, ok := n.handlers[p.self].(node.Restarter); ok {
			n.cfg.Store.Save(p.self, r.Snapshot())
		}
	}
	p.mu.Lock()
	p.down = true
	p.revive = false
	p.injects = nil
	p.dueTimer = nil
	for _, lt := range p.timers {
		lt.gen++
		if lt.timer != nil {
			lt.timer.Stop()
		}
	}
	p.mu.Unlock()
	n.wire.PlanCrashes.Inc()
	n.record(model.Crash(p.self))
	if lis, ok := n.handlers[p.self].(node.CrashListener); ok {
		lis.OnCrash(&liveCtx{p: p})
	}
	if downFor := l.Restart - l.Crash; mode != recovery.Off && downFor > 0 {
		// Downtime is measured from the crash's execution, so a late crash
		// still keeps the process down for the plan's full window.
		n.afterTicks(downFor, func() {
			p.mu.Lock()
			if p.down {
				p.revive = true
			}
			p.mu.Unlock()
			p.wake()
		})
	}
	if l.Period > 0 && mode != recovery.Off {
		if next := at + l.Period; l.Until == 0 || next <= l.Until {
			// The next window stays on the plan's absolute cadence.
			n.afterTicks(next-n.nowTicks(), func() { n.planCrash(idx, next) })
		}
	}
}

// finishRestart runs on the worker once the revive flag is consumed: record
// the restart, then hand the handler its crash-time snapshot (durable) or
// re-initialize it blank.
func (n *Net) finishRestart(p *proc) {
	var st []byte
	if n.cfg.Recovery == recovery.Durable {
		st, _ = n.cfg.Store.Load(p.self)
	}
	n.record(model.Restart(p.self))
	n.wire.Restarts.Inc()
	if len(st) > 0 {
		n.wire.Recovered.Inc()
	}
	// Restart spans are detection-grade, never sampled out — same rule as
	// the simulator's.
	if n.cfg.Spans != nil {
		note := "recovery=" + n.cfg.Recovery.String()
		if n.cfg.Recovery == recovery.Durable {
			note = fmt.Sprintf("%s snapshot=%dB", note, len(st))
		}
		n.cfg.Spans.Record(obs.Span{Time: n.nowTicks(), Kind: obs.SpanRestart, Proc: p.self, Note: note})
	}
	ctx := &liveCtx{p: p}
	if r, ok := n.handlers[p.self].(node.Restarter); ok {
		r.OnRestart(ctx, st)
	} else {
		n.handlers[p.self].Init(ctx)
	}
}

// liveMsg is a queued message on a live channel.
type liveMsg struct {
	id      model.MsgID
	payload node.Payload
	readyAt time.Time
	parked  bool  // held forever; blocks the channel behind it
	span    int64 // enqueue span id; 0 when the message is unsampled
}

// proc is the per-process worker state.
type proc struct {
	net  *Net
	self model.ProcID

	mu       sync.Mutex
	queues   map[model.ProcID][]liveMsg // per-sender FIFO
	injects  []func(node.Context)
	timers   map[string]*liveTimer
	dueTimer []string              // timer names that have fired, in order
	emitted  map[model.ProcID]bool // failed_self(j) already recorded
	crashed  bool
	down     bool // plan-crashed, restart possibly pending (crash-recovery)
	revive   bool // restart timer elapsed; worker finishes the restart
	wakeCh   chan struct{}

	// curSpan frames the handler callback currently running on this
	// process's worker. Only the worker goroutine touches it (callbacks are
	// serialized per process), so it needs no lock.
	curSpan int64
}

type liveTimer struct {
	gen   int64
	timer *time.Timer
}

func newProc(n *Net, self model.ProcID) *proc {
	return &proc{
		net:     n,
		self:    self,
		queues:  make(map[model.ProcID][]liveMsg),
		timers:  make(map[string]*liveTimer),
		emitted: make(map[model.ProcID]bool),
		wakeCh:  make(chan struct{}, 1),
	}
}

func (p *proc) wake() {
	select {
	case p.wakeCh <- struct{}{}:
	default:
	}
}

// inject schedules fn for serialized execution on p's worker. Injections
// to crashed or down processes are dropped: there is nobody home.
func (p *proc) inject(fn func(node.Context)) {
	p.mu.Lock()
	if p.crashed || p.down {
		p.mu.Unlock()
		return
	}
	p.injects = append(p.injects, fn)
	p.mu.Unlock()
	p.wake()
}

// ctxDo runs fn synchronously in p's context (used for Init before the
// workers start).
func (p *proc) ctxDo(fn func(node.Context)) {
	fn(&liveCtx{p: p})
}

// loop is the worker: deliver injections, due timers, and ready channel
// heads until the network stops or the process crashes.
func (p *proc) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-p.net.stopCh:
			return
		default:
		}
		if !p.step() {
			// Nothing deliverable: wait for a wake-up or shutdown.
			select {
			case <-p.net.stopCh:
				return
			case <-p.wakeCh:
			case <-time.After(p.net.cfg.MaxDelay):
				// Periodic re-check: a head may have become ready.
			}
		}
	}
}

// step delivers at most one pending item; it reports whether it did.
func (p *proc) step() bool {
	p.mu.Lock()
	if p.crashed {
		p.mu.Unlock()
		return false
	}
	if p.down {
		if p.revive {
			p.revive = false
			p.down = false
			p.mu.Unlock()
			p.net.finishRestart(p)
			return true
		}
		// Arrival at a down process is loss, same rule as the simulator:
		// discard every head that became ready, then go back to sleep.
		now := time.Now()
		for from, q := range p.queues {
			for len(q) > 0 && !q[0].parked && !q[0].readyAt.After(now) {
				if q[0].span != 0 {
					p.net.cfg.Spans.Record(obs.Span{
						Parent: q[0].span, Time: p.net.nowTicks(), Kind: obs.SpanDrop,
						Proc: p.self, Peer: from, Msg: q[0].id, Note: "receiver down",
					})
				}
				q = q[1:]
			}
			p.queues[from] = q
		}
		p.mu.Unlock()
		return false
	}
	// 1. Injections.
	if len(p.injects) > 0 {
		fn := p.injects[0]
		p.injects = p.injects[1:]
		p.mu.Unlock()
		fn(&liveCtx{p: p})
		return true
	}
	// 2. Due timers.
	if len(p.dueTimer) > 0 {
		name := p.dueTimer[0]
		p.dueTimer = p.dueTimer[1:]
		p.mu.Unlock()
		p.net.wire.TimersFired.Inc()
		p.net.handlers[p.self].OnTimer(&liveCtx{p: p}, name)
		return true
	}
	// 3. Ready channel heads, in sender order for fairness determinism.
	now := time.Now()
	gate, _ := p.net.handlers[p.self].(node.Gate)
	senders := make([]model.ProcID, 0, len(p.queues))
	for from := range p.queues {
		if len(p.queues[from]) > 0 {
			senders = append(senders, from)
		}
	}
	slices.Sort(senders)
	for _, from := range senders {
		head := p.queues[from][0]
		if head.parked || head.readyAt.After(now) {
			continue
		}
		if gate != nil && !gate.Accepts(from, head.payload) {
			continue
		}
		p.queues[from] = p.queues[from][1:]
		p.mu.Unlock()
		p.net.record(model.Recv(p.self, from, head.id, head.payload.Tag, head.payload.Subject))
		p.net.wire.Delivered.Inc()
		if head.span != 0 {
			p.curSpan = p.net.cfg.Spans.Record(obs.Span{
				Parent: head.span, Time: p.net.nowTicks(), Kind: obs.SpanDeliver,
				Proc: p.self, Peer: from, Msg: head.id, Tag: head.payload.Tag,
			})
		} else {
			p.curSpan = 0
		}
		p.net.handlers[p.self].OnMessage(&liveCtx{p: p}, from, head.payload)
		p.curSpan = 0
		return true
	}
	p.mu.Unlock()
	return false
}

// liveCtx implements node.Context for one process of a live network.
type liveCtx struct {
	p *proc
}

var _ node.Context = (*liveCtx)(nil)

func (c *liveCtx) Self() model.ProcID { return c.p.self }
func (c *liveCtx) N() int             { return c.p.net.cfg.N }
func (c *liveCtx) Now() int64         { return c.p.net.nowTicks() }

func (c *liveCtx) Send(to model.ProcID, pl node.Payload) {
	p := c.p
	net := p.net
	p.mu.Lock()
	dead := p.crashed || p.down
	p.mu.Unlock()
	if dead {
		return
	}
	if to == p.self {
		panic("runtime: send to self not supported")
	}
	if to < 1 || int(to) > net.cfg.N {
		panic(fmt.Sprintf("runtime: send to invalid process %d", to))
	}
	net.recMu.Lock()
	net.nextMsg++
	id := net.nextMsg
	now := net.nowTicks()
	e := model.Send(p.self, to, id, pl.Tag, pl.Subject)
	e.Time = now
	e.Seq = len(net.history)
	net.history = append(net.history, e)
	net.recMu.Unlock()

	dst := net.procs[to]
	var maxDelay time.Duration
	copies := net.wire.Send(p.self, to, id, pl, now, p.curSpan, func(cp node.Copy) {
		d := net.delay() + time.Duration(cp.Extra)*net.cfg.Tick
		if d > maxDelay {
			maxDelay = d
		}
		msg := liveMsg{id: id, payload: cp.Payload, readyAt: time.Now().Add(d), parked: cp.Park, span: cp.Span}
		dst.mu.Lock()
		dst.queues[p.self] = node.Enqueue(dst.queues[p.self], msg, cp.Reorder)
		dst.mu.Unlock()
	})
	if copies == 0 {
		return
	}
	dst.wake()
	// Ensure a re-check once the delay elapses even if nothing else wakes
	// the destination.
	time.AfterFunc(maxDelay, dst.wake)
}

func (c *liveCtx) SetTimer(name string, delayTicks int64) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed || p.down {
		return
	}
	lt := p.timers[name]
	if lt == nil {
		lt = &liveTimer{}
		p.timers[name] = lt
	} else if lt.timer != nil {
		lt.timer.Stop()
	}
	lt.gen++
	gen := lt.gen
	d := time.Duration(delayTicks) * p.net.cfg.Tick
	lt.timer = time.AfterFunc(d, func() {
		p.mu.Lock()
		cur := p.timers[name]
		if p.crashed || cur == nil || cur.gen != gen {
			p.mu.Unlock()
			return
		}
		p.dueTimer = append(p.dueTimer, name)
		p.mu.Unlock()
		p.wake()
	})
}

func (c *liveCtx) CancelTimer(name string) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if lt := p.timers[name]; lt != nil {
		lt.gen++
		if lt.timer != nil {
			lt.timer.Stop()
		}
	}
}

func (c *liveCtx) EmitFailed(j model.ProcID) {
	p := c.p
	p.mu.Lock()
	if p.crashed || p.down || p.emitted[j] {
		p.mu.Unlock()
		return
	}
	p.emitted[j] = true
	p.mu.Unlock()
	p.net.record(model.Failed(p.self, j))
	// Detection spans are recorded unconditionally, like the simulator's.
	if p.net.cfg.Spans != nil {
		p.net.cfg.Spans.Record(obs.Span{
			Parent: p.curSpan, Time: p.net.nowTicks(), Kind: obs.SpanCrashConfirm,
			Proc: p.self, Target: j,
		})
	}
}

func (c *liveCtx) CrashSelf() {
	p := c.p
	p.mu.Lock()
	if p.crashed || p.down {
		p.mu.Unlock()
		return
	}
	p.crashed = true
	for _, lt := range p.timers {
		lt.gen++
		if lt.timer != nil {
			lt.timer.Stop()
		}
	}
	p.mu.Unlock()
	p.net.record(model.Crash(p.self))
	if l, ok := p.net.handlers[p.self].(node.CrashListener); ok {
		l.OnCrash(c)
	}
	p.wake()
}

func (c *liveCtx) EmitInternal(tag string, subject model.ProcID) {
	p := c.p
	p.mu.Lock()
	dead := p.crashed || p.down
	p.mu.Unlock()
	if dead {
		return
	}
	p.net.record(model.Internal(p.self, tag, subject))
	if tag == "suspect" && p.net.cfg.Spans != nil {
		p.net.cfg.Spans.Record(obs.Span{
			Parent: p.curSpan, Time: p.net.nowTicks(), Kind: obs.SpanSuspect,
			Proc: p.self, Target: subject, Tag: tag,
		})
	}
}
