package main

//sfs:allow detwallclock operations are timed on the wall clock, and live-detect waits on real time; simulated inputs derive from seeds only

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"failstop"
	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/reliable"
	"failstop/internal/runtime"
	"failstop/internal/sim"
	"failstop/internal/sweep"
	"failstop/internal/topo"
)

// opResult is one measured operation: a sweep of the grid, one simulated
// run, or one live cluster's life.
type opResult struct {
	// The operation's measured window, construction through result,
	// oracle excluded. Its took is process CPU time for simulated
	// operations and wall time for live clusters (see hostNow).
	window
	runs int // simulated runs or live clusters

	// Simulated counts; the traced pass must reproduce them exactly.
	sent, delivered, events, retransmits, convictions int64

	timers, links, masked int64
	hist                  histStats // detections and message mix, summed
	// detMs holds one sample per completed detection. Live detections are
	// timed on the wall clock from the Suspect call to the last OnFailed.
	// A simulation has no wall-clock latency of its own, so a simulated
	// detection's sample is its run's host time per completed detection
	// (its operation's, for sweeps, which do not time runs).
	detMs             []float64
	attempted, failed int

	// Filled by traced operations only.
	quorumSizes []int
	subfamilies float64
	drops       int64
}

func (o *opResult) addRun(r *sim.Result, h histStats) {
	o.runs++
	o.sent += int64(r.Sent)
	o.delivered += int64(r.Delivered)
	o.events += int64(len(r.History))
	o.retransmits += int64(r.Retransmits)
	o.convictions += int64(r.ByzDetected)
	o.masked += int64(r.ByzMasked)
	for _, m := range r.Metrics {
		switch m.Name {
		case "sim_timers_fired_total":
			o.timers += m.Value
		case "sim_links_live":
			o.links += m.Value
		}
	}
	o.addHist(h)
}

// addHostTime adds the host-time-per-detection samples of a run (or
// sweep) that took took and completed detections detections.
func (o *opResult) addHostTime(took time.Duration, detections int) {
	for i := 0; i < detections; i++ {
		o.detMs = append(o.detMs, took.Seconds()*1e3/float64(detections))
	}
}

func (o *opResult) addHist(h histStats) {
	o.hist.detections += h.detections
	o.hist.ticks = append(o.hist.ticks, h.ticks...)
	o.hist.susp += h.susp
	o.hist.hb += h.hb
	o.hist.sends += h.sends
	o.hist.falseSusp += h.falseSusp
	o.hist.quorumSets += h.quorumSets
}

// simCounts are the counts of a simulated operation that its traced
// replay must reproduce.
type simCounts struct {
	runs                                              int
	sent, delivered, events, retransmits, convictions int64
}

func (o *opResult) counts() simCounts {
	return simCounts{o.runs, o.sent, o.delivered, o.events, o.retransmits, o.convictions}
}

// workload is one benchmark input family. setup builds the shared inputs
// from the seed and warms up (it is timed, and repeated setupReps times);
// op runs operation k, traced into g when g is non-nil, and must be a
// pure function of (seed, k).
type workload interface {
	setup() error
	setupReps() int
	op(k int, g *traceLog) opResult
	// layers adds the workload's own per-layer metrics to m, given the
	// traced pass's totals.
	layers(m map[string]float64, traced *totals)
	// keep returns the last operation's result, held across the heap
	// measurement.
	keep() any
}

// window is what a measured stretch of work cost the host.
type window struct {
	took     time.Duration // host time
	wall     time.Duration
	alloc    uint64 // bytes allocated
	gcCycles int64  // garbage collections completed
	gcPause  time.Duration
}

func (a *window) add(b window) {
	a.took += b.took
	a.wall += b.wall
	a.alloc += b.alloc
	a.gcCycles += b.gcCycles
	a.gcPause += b.gcPause
}

// mark is the start of a window.
type mark struct {
	window // counters at the start; took is CPU time
	at     time.Time
}

func startMark() mark {
	var m mark
	m.gcCycles, m.gcPause = gcCounts()
	m.alloc, m.took, m.at = allocated(), cpuTime(), time.Now()
	return m
}

// stop closes the window, with process CPU time as its host time.
func (m mark) stop() window {
	cpu, wall := cpuTime(), time.Since(m.at)
	a := allocated()
	gcs, pause := gcCounts()
	return window{took: cpu - m.took, wall: wall, alloc: a - m.alloc, gcCycles: gcs - m.gcCycles, gcPause: pause - m.gcPause}
}

// gcCounts returns the garbage collections completed so far and their
// total stop-the-world pause.
func gcCounts() (int64, time.Duration) {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return int64(ms.NumGC), time.Duration(ms.PauseTotalNs)
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuTime returns the CPU time the process has used so far, in user and
// system mode. Linux leaves out time a hypervisor steals from the
// machine's virtual CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var wallEpoch = time.Now()

// hostNow reads the clock w's host times are taken on. The simulated
// workloads are CPU-bound and use process CPU time: on a shared virtual
// machine the time stolen from its CPUs swings by tens of percent between
// runs, and CPU time leaves it out (speed.go then scales it to reference
// time). live-detect measures real delays and uses the wall clock.
func hostNow(w workload) time.Duration {
	if _, live := w.(*liveDetect); live {
		return time.Since(wallEpoch)
	}
	return cpuTime()
}

// sweepChecked runs sweep.Run with the checker on over the
// BenchmarkSweepSerial grid, one cell and seedsPerOp seeds per operation.
type sweepChecked struct {
	grid       []sweep.NT
	seedsPerOp int
	workers    int
	base       int64
	schedules  []sweep.Schedule
	last       *sweep.Report

	mu   sync.Mutex
	busy time.Duration // traced: worker time inside runs and checks, under mu
	wall time.Duration // traced: operation wall time
}

func newSweepChecked(seed int64, workers int) *sweepChecked {
	return &sweepChecked{
		grid:       []sweep.NT{{N: 8, T: 2}, {N: 10, T: 3}, {N: 12, T: 3}, {N: 15, T: 3}},
		seedsPerOp: 8,
		workers:    workers,
		base:       seed * 1_000_000,
	}
}

// spec is operation k's sweep: one (n/t, schedule) cell of the grid,
// cycling through the cells, on that cell's next seedsPerOp seeds. One cell
// per operation gives every detection of an operation a host-time sample
// from runs of one size, so the upper percentiles land inside the costliest
// cell rather than on whichever operation a machine hiccup hit. Throughput
// is sampled per round of cells() operations, one pass over the grid.
func (w *sweepChecked) spec(k int) sweep.Spec {
	cells := w.cells()
	c, round := k%cells, k/cells
	if c < 0 {
		c, round = c+cells, round-1
	}
	return sweep.Spec{
		Grid:      []sweep.NT{w.grid[c/len(w.schedules)]},
		Schedules: []sweep.Schedule{w.schedules[c%len(w.schedules)]},
		Seeds:     sweep.SeedRange{Start: w.base + int64(round*w.seedsPerOp), Count: w.seedsPerOp},
		Check:     true,
	}
}

// cells is the number of (n/t, schedule) cells, once set up.
func (w *sweepChecked) cells() int { return len(w.grid) * len(w.schedules) }

func (w *sweepChecked) setupReps() int { return 9 }

func (w *sweepChecked) setup() error {
	w.schedules = nil
	for _, name := range []string{"false-suspicion", "crash"} {
		s, ok := sweep.Builtin(name)
		if !ok {
			return fmt.Errorf("sweep-checked: no builtin schedule %q", name)
		}
		w.schedules = append(w.schedules, s)
	}
	// Warm up on every cell once, on seeds below the measured range.
	for k := -w.cells(); k < 0; k++ {
		rep, err := sweep.Run(w.spec(k), sweep.Options{Workers: w.workers})
		if err != nil {
			return fmt.Errorf("sweep-checked: %w", err)
		}
		w.last = rep
	}
	return nil
}

func (w *sweepChecked) op(k int, g *traceLog) opResult {
	spec := w.spec(k)
	var mu sync.Mutex
	var res opResult
	// Observe only keeps each run; the benchmark's own analysis of the
	// runs happens after the timed window closes.
	type observed struct {
		cell sweep.Cell
		r    *sim.Result
	}
	var runs []observed
	keep := func(cell sweep.Cell, r *sim.Result) {
		mu.Lock()
		runs = append(runs, observed{cell, r})
		mu.Unlock()
	}
	spec.Observe = func(cell sweep.Cell, seed int64, out sweep.RunOutput) map[string]bool {
		keep(cell, out.Result)
		return nil
	}
	if g != nil {
		w.traceSpec(&spec, g, &mu, &res, keep)
	}
	w.last = nil
	m := startMark()
	rep, err := sweep.Run(spec, sweep.Options{Workers: w.workers})
	res.window = m.stop()
	if err != nil {
		res.attempted, res.failed = 1, 1
		return res
	}
	for _, o := range runs {
		h := analyze(o.r.History, o.cell.NT.N)
		res.addRun(o.r, h)
		// The Witness check looks at every subfamily of min(t, m) of the
		// run's m quorum sets.
		if m := h.quorumSets; m > 1 {
			res.subfamilies += binomial(m, min(o.cell.NT.T, m))
		}
	}
	w.last = rep
	res.addHostTime(res.took, res.hist.detections)
	res.attempted = rep.Runs
	if g == nil {
		res.failed = sweepFailures(rep, func(c sweep.CellResult) map[string]int { return c.Holds })
	} else {
		res.failed = sweepFailures(rep, func(c sweep.CellResult) map[string]int { return c.Metrics })
		w.wall += res.wall
	}
	return res
}

// traceSpec turns spec into its traced twin: the runner mirrors the sweep's
// default cluster construction with shims, and the checker runs in Observe,
// property by property, inside checker spans.
func (w *sweepChecked) traceSpec(spec *sweep.Spec, g *traceLog, mu *sync.Mutex, res *opResult, keep func(sweep.Cell, *sim.Result)) {
	scheds := map[string]sweep.Schedule{}
	for _, s := range w.schedules {
		scheds[s.Name] = s
	}
	spec.Check = false
	spec.Runner = func(cell sweep.Cell, seed int64) sweep.RunOutput {
		t0 := time.Now()
		sc := scheds[cell.Schedule]
		var delay sim.DelayFn
		if sc.Delay != nil {
			delay = sc.Delay(cell.NT, seed)
		}
		opts := cluster.Options{
			Sim: sim.Config{N: cell.NT.N, Seed: seed, Delay: delay, Recovery: cell.Recovery},
			Det: core.Config{N: cell.NT.N, T: cell.NT.T, Protocol: cell.Protocol},
		}
		run := runSim(opts, g, int(seed), nil, sc.Faults(cell.NT, seed))
		qs := run.c.quorumSizes(nil)
		mu.Lock()
		res.quorumSizes = append(res.quorumSizes, qs...)
		mu.Unlock()
		w.addBusy(time.Since(t0))
		return sweep.RunOutput{Result: run.r, Obs: run.r.Metrics}
	}
	spec.Observe = func(cell sweep.Cell, seed int64, out sweep.RunOutput) map[string]bool {
		t0 := time.Now()
		r := out.Result
		var m map[string]bool
		if r.Quiescent() {
			tr := g.tracer(int(seed))
			var vs []checker.Verdict
			tr.begin(lCheckerSFS)
			a := r.History.DropTags(core.TagSusp, fd.TagHeartbeat)
			vs = append(vs, checker.FS1(a), checker.FS2(a),
				checker.SFS2a(a), checker.SFS2b(a), checker.SFS2c(a), checker.SFS2d(a),
				checker.Condition1(a), checker.Condition2(a), checker.Condition3(a))
			tr.end()
			tr.begin(lCheckerW)
			vs = append(vs, checker.WitnessProperty(r.History, core.TagSusp, cell.NT.T))
			tr.end()
			g.merge(tr)
			m = make(map[string]bool, len(vs))
			for _, v := range vs {
				m[v.Property] = v.Holds
			}
		}
		w.addBusy(time.Since(t0))
		keep(cell, r)
		return m
	}
}

// utilisation is the share of the machine's CPU time, over the measured
// operations, that the sweep kept its workers busy: process CPU time over
// the workers' wall time less the share the hypervisor stole. The
// sweep's host time is CPU time divided by it, so that workers sitting
// idle cost time, as they do on the wall clock, while stolen time does not.
func (w *sweepChecked) utilisation(t *totals, share float64) float64 {
	return ratio(t.took.Seconds(), float64(w.workers)*t.wall.Seconds()*(1-share))
}

func (w *sweepChecked) addBusy(d time.Duration) {
	w.mu.Lock()
	w.busy += d
	w.mu.Unlock()
}

func (w *sweepChecked) layers(m map[string]float64, traced *totals) {
	if w.wall > 0 {
		m["sweep.busy_ratio"] = w.busy.Seconds() / (w.wall.Seconds() * float64(w.workers))
	}
	runs := float64(traced.runs)
	m["checker.quorum_sets_per_run"] = ratio(float64(traced.quorumSets), runs)
	m["checker.subfamilies_per_run"] = ratio(traced.subfamilies, runs)
}

func (w *sweepChecked) keep() any { return w.last }

// gossip runs one n=10⁴, t=5 cluster per operation over a fanout-8 gossip
// topology built once per benchmark run, under the crash schedule.
type gossip struct {
	n, t, fanout int
	seed         int64
	crash        sweep.Schedule
	top          *topo.Topology
	topoTimes    []float64
	last         *sim.Result
}

func newGossip(seed int64) *gossip { return &gossip{n: 10_000, t: 5, fanout: 8, seed: seed} }

// setupReps is small: every set-up includes a multi-second warm-up run.
func (w *gossip) setupReps() int { return 3 }

func (w *gossip) setup() error {
	s, ok := sweep.Builtin("crash")
	if !ok {
		return fmt.Errorf("gossip-10k: no builtin crash schedule")
	}
	w.crash = s
	t0 := time.Now()
	top, err := topo.New(topo.Spec{Kind: topo.KindGossip, Fanout: w.fanout, Seed: w.seed}, w.n)
	if err != nil {
		return fmt.Errorf("gossip-10k: %w", err)
	}
	w.topoTimes = append(w.topoTimes, time.Since(t0).Seconds())
	w.top = top
	// Warm up on one run, on a seed the measured operations skip.
	if r := w.op(-1, nil); r.failed > 0 {
		return fmt.Errorf("gossip-10k: warm-up run failed its oracle")
	}
	return nil
}

func (w *gossip) options(seed int64) cluster.Options {
	return cluster.Options{
		// A gossip detection round takes about 1.7M events at this size,
		// past the simulator's default runaway cap.
		Sim: sim.Config{N: w.n, Seed: seed, MaxEvents: 8 << 20},
		Det: core.Config{N: w.n, T: w.t, Topology: w.top},
	}
}

func (w *gossip) op(k int, g *traceLog) opResult {
	seed := w.seed*1000 + int64(k)
	nt := sweep.NT{N: w.n, T: w.t}
	faults := w.crash.Faults(nt, seed)
	// Start every run from a collected heap, so no run pays for the
	// previous run's garbage.
	w.last = nil
	goruntime.GC()
	var res opResult
	run := runSim(w.options(seed), g, k, nil, faults)
	c, r := run.c, run.r
	res.window = run.win
	if g != nil {
		res.quorumSizes = c.quorumSizes(nil)
	}
	h := analyze(r.History, w.n)
	res.addRun(r, h)
	res.addHostTime(run.win.took, h.detections)
	res.attempted = 1
	if r.Stop != sim.StopDrained || c.quorumStarved() {
		res.failed = 1
	}
	w.last = r
	return res
}

func (w *gossip) layers(m map[string]float64, _ *totals) {
	m["topo.build_s"] = quantile(append([]float64(nil), w.topoTimes...), 0.5)
	m["topo.links"] = float64(w.top.Links())
}

func (w *gossip) keep() any { return w.last }

// faultyStack runs small clusters through the whole fault stack: a netadv
// plan, the reliable layer with bounded retries, the Byzantine
// interposer, and fd heartbeats with a timeout, to a horizon. One
// operation runs every (n/t, plan) cell once.
type faultyStack struct {
	seed    int64
	maxTime int64

	cells []faultyCell
	last  *sim.Result
}

type faultyCell struct {
	nt   sweep.NT
	plan netadv.Plan
}

func newFaultyStack(seed int64) *faultyStack {
	return &faultyStack{seed: seed, maxTime: 400}
}

func (w *faultyStack) setupReps() int { return 9 }

func (w *faultyStack) setup() error {
	w.cells = nil
	for _, nt := range []sweep.NT{{N: 10, T: 3}, {N: 16, T: 3}} {
		for _, name := range []string{"flaky-quorum", "byzantine-minority"} {
			gen, ok := netadv.Builtin(name)
			if !ok {
				return fmt.Errorf("faulty-stack: no builtin plan %q", name)
			}
			p := gen.Make(nt.N, nt.T)
			if err := p.Validate(nt.N); err != nil {
				return fmt.Errorf("faulty-stack: plan %s: %w", name, err)
			}
			w.cells = append(w.cells, faultyCell{nt: nt, plan: p})
		}
	}
	// Warm up on seeds the measured operations skip.
	w.op(-1, nil)
	return nil
}

func (w *faultyStack) op(k int, g *traceLog) opResult {
	var res opResult
	w.last = nil
	for i := range w.cells {
		w.run(&res, int64(k*len(w.cells)+i), i, g)
	}
	return res
}

// run adds one run of cell cellIdx, on run number k, to res.
func (w *faultyStack) run(res *opResult, k int64, cellIdx int, g *traceLog) {
	cell := w.cells[cellIdx]
	n, t := cell.nt.N, cell.nt.T
	seed := w.seed*1_000_003 + k
	// One crash among the processes the Byzantine plan leaves honest
	// (2..n-t), suspected by process 1; heartbeats find it too.
	victim := model.ProcID(2 + rand.New(rand.NewSource(seed)).Intn(n-t-1))
	plane := netadv.NewPlane(cell.plan, n, seed)
	// Retransmission every 10 ticks lets most detections complete under
	// flaky-quorum's 35% SUSP loss before the horizon; the heartbeat
	// timeout stays above the slowest retransmitted detection.
	opts := cluster.Options{
		Sim: sim.Config{N: n, Seed: seed, Link: plane.Decide, MaxTime: w.maxTime, Lifetimes: cell.plan.Lifetimes()},
		Det: core.Config{N: n, T: t},
		FD: func(model.ProcID) core.Component {
			return &fd.Heartbeat{Interval: 25, Timeout: 200}
		},
		Reliable:  reliable.Options{Enabled: true, RetryInterval: 10, MaxRetries: 8},
		Byzantine: byz.Options{Enabled: true},
	}
	faults := []sweep.Fault{
		{Kind: sweep.FaultCrash, At: 2, Proc: victim},
		{Kind: sweep.FaultSuspect, At: 50, Proc: 1, Target: victim},
	}
	run := runSim(opts, g, int(k), &res.drops, faults)
	r := run.r
	res.add(run.win)
	if g != nil {
		res.quorumSizes = run.c.quorumSizes(res.quorumSizes)
	}
	h := analyze(r.History, n)
	res.addRun(r, h)
	res.addHostTime(run.win.took, h.detections)
	res.attempted++
	if !sfs2bcd(r.History) {
		res.failed++
	}
	w.last = r
}

func (w *faultyStack) layers(m map[string]float64, traced *totals) {
	runs := float64(traced.runs)
	m["fd.heartbeats_per_run"] = ratio(float64(traced.hb), runs)
	m["fd.false_suspicions_per_run"] = ratio(float64(traced.falseSusp), runs)
}

func (w *faultyStack) keep() any { return w.last }

// liveDetect drives a live goroutine cluster in a closed loop with one
// driver: crash a victim, have process 1 suspect it, wait until every live
// process's App.OnFailed fires, repeat for t victims, then stop the
// cluster. One operation is one cluster's life.
type liveDetect struct {
	n, t               int
	seed               int64
	minDelay, maxDelay time.Duration
	deadline           time.Duration
	last               model.History
	// Traced: handler seconds and start seconds per cluster, message
	// transit times in ticks, and timers fired.
	handlerS, startS []float64
	transit          intHist
	timersFired      int64
}

func newLiveDetect(seed int64) *liveDetect {
	return &liveDetect{
		n: 16, t: 3, seed: seed,
		minDelay: 20 * time.Microsecond, maxDelay: 200 * time.Microsecond,
		deadline: 2 * time.Second,
	}
}

// tick is the live clock's unit: history times are microseconds.
const tick = time.Microsecond

func (w *liveDetect) setupReps() int { return 51 }

func (w *liveDetect) setup() error {
	// Warm up on a few clusters' lives, on seeds the measured clusters
	// skip.
	for k := -1; k >= -5; k-- {
		if r := w.op(k, nil); r.failed > 0 {
			return fmt.Errorf("live-detect: warm-up cluster failed %d of %d detections", r.failed, r.attempted)
		}
	}
	return nil
}

// watch is the application on every live process: it reports when every
// process that is not a victim has executed failed(target). A victim whose
// crash is still in flight may execute failed(target) too; it does not
// count.
type watch struct {
	mu      sync.Mutex
	target  model.ProcID
	victims map[model.ProcID]bool
	need    int
	last    time.Time
	done    chan struct{}
}

// arm adds target to the victims and starts watching for failed(target)
// at every one of the n processes that is not a victim.
func (w *watch) arm(target model.ProcID, n int) <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.victims == nil {
		w.victims = map[model.ProcID]bool{}
	}
	w.victims[target] = true
	w.target, w.need, w.done = target, n-len(w.victims), make(chan struct{})
	return w.done
}

func (w *watch) lastAt() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

func (w *watch) Init(node.Context, *core.Detector)                               {}
func (w *watch) OnAppMessage(node.Context, *core.Detector, model.ProcID, []byte) {}
func (w *watch) OnTimer(node.Context, *core.Detector, string)                    {}

func (w *watch) OnFailed(ctx node.Context, _ *core.Detector, j model.ProcID) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if j != w.target || w.need == 0 || w.victims[ctx.Self()] {
		return
	}
	w.last = now
	if w.need--; w.need == 0 {
		close(w.done)
	}
}

// liveHost is the part of a live cluster the driver uses, so the measured
// facade and the traced runtime mirror run the same loop.
type liveHost struct {
	start, stop func()
	crash       func(p model.ProcID)
	suspect     func(i, j model.ProcID)
	history     func() model.History
}

func (w *liveDetect) op(k int, g *traceLog) opResult {
	seed := w.seed*1000 + int64(k)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(w.n - 1)
	app := &watch{}
	w.last = nil
	var res opResult
	m := startMark()
	var host liveHost
	var tracers []*tracer
	var net *runtime.Net
	var dets []*core.Detector
	if g == nil {
		lc := failstop.NewLiveCluster(failstop.LiveOptions{
			N: w.n, T: w.t, Seed: seed, MinDelay: w.minDelay, MaxDelay: w.maxDelay, Tick: tick,
			NewApp: func(failstop.ProcID) failstop.App { return app },
		})
		host = liveHost{lc.Start, lc.Stop, lc.Crash, lc.Suspect, lc.History}
	} else {
		net, dets, tracers, host = w.tracedNet(seed, app, g)
	}
	s0 := time.Now()
	host.start()
	start := time.Since(s0)
	for i := 0; i < w.t; i++ {
		v := model.ProcID(2 + perm[i])
		done := app.arm(v, w.n)
		host.crash(v)
		sent := time.Now()
		host.suspect(1, v)
		res.attempted++
		timer := time.NewTimer(w.deadline)
		select {
		case <-done:
			timer.Stop()
			res.detMs = append(res.detMs, float64(app.lastAt().Sub(sent))/float64(time.Millisecond))
		case <-timer.C:
			res.failed++
		}
		if res.failed > 0 {
			res.failed = w.t - i
			res.attempted = w.t
			break
		}
	}
	host.stop()
	res.window = m.stop()
	res.took = res.wall
	res.runs = 1
	h := host.history()
	if res.failed == 0 && !sfs2bcd(h) {
		res.failed = res.attempted
	}
	st := analyze(h, w.n)
	res.addHist(st)
	res.sent = st.sends
	if g != nil {
		var handler time.Duration
		for _, tr := range tracers {
			handler += tr.agg[lCore].total
			g.merge(tr)
		}
		w.handlerS = append(w.handlerS, handler.Seconds())
		w.startS = append(w.startS, start.Seconds())
		for _, d := range dets[1:] {
			for _, q := range d.Quorums() {
				res.quorumSizes = append(res.quorumSizes, len(q))
			}
		}
		w.addTransits(h)
		for _, m := range net.Metrics() {
			if m.Name == "net_timers_fired_total" {
				w.timersFired += m.Value
			}
		}
	}
	w.last = h
	return res
}

// tracedNet mirrors failstop.NewLiveCluster for this workload's options
// (full mesh, no fault plan, no reliable or Byzantine layer) with a timing
// shim around every detector; each process gets its own tracer, since its
// callbacks run serialized on its own goroutine.
func (w *liveDetect) tracedNet(seed int64, app core.App, g *traceLog) (*runtime.Net, []*core.Detector, []*tracer, liveHost) {
	net := runtime.New(runtime.Config{N: w.n, Seed: seed, MinDelay: w.minDelay, MaxDelay: w.maxDelay, Tick: tick})
	dets := make([]*core.Detector, w.n+1)
	shims := make([]*shim, w.n+1)
	tracers := make([]*tracer, 0, w.n)
	for p := 1; p <= w.n; p++ {
		d := core.NewDetector(core.Config{N: w.n, T: w.t, Protocol: core.SimulatedFailStop}, nil, app)
		tr := g.tracer(p)
		tracers = append(tracers, tr)
		dets[p], shims[p] = d, hostShim(d, lCore, tr, lRuntime)
		net.SetHandler(model.ProcID(p), shims[p])
	}
	host := liveHost{
		start: net.Start,
		stop:  net.Stop,
		crash: func(p model.ProcID) { net.Do(p, func(ctx node.Context) { ctx.CrashSelf() }) },
		suspect: func(i, j model.ProcID) {
			sh, d := shims[i], dets[i]
			net.Do(i, func(ctx node.Context) {
				sh.tr.begin(lCore)
				d.Suspect(sh.wrap(ctx), j)
				sh.tr.end()
			})
		},
		history: net.History,
	}
	return net, dets, tracers, host
}

// addTransits counts every delivered message's send-to-receive time,
// in ticks, from a live history.
func (w *liveDetect) addTransits(h model.History) {
	sentAt := map[model.MsgID]int64{}
	for _, e := range h {
		switch e.Kind {
		case model.KindSend:
			sentAt[e.Msg] = e.Time
		case model.KindRecv:
			if t, ok := sentAt[e.Msg]; ok {
				w.transit.add(int(e.Time - t))
			}
		default:
			// Only message events have a transit time.
		}
	}
}

func (w *liveDetect) layers(m map[string]float64, traced *totals) {
	us := float64(tick) / float64(time.Microsecond)
	m["runtime.transit_p50_us"] = w.transit.quantile(0.5) * us
	m["runtime.transit_p99_us"] = w.transit.quantile(0.99) * us
	m["runtime.cluster_start_s"] = quantile(w.startS, 0.5)
	m["runtime.handler_s"] = quantile(w.handlerS, 0.5)
	m["runtime.timers_fired"] = ratio(float64(w.timersFired), float64(traced.runs))
}

func (w *liveDetect) keep() any { return w.last }
