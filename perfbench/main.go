// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget, checks every operation's output
// with a correctness oracle, and prints its metrics. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it runs the workload
// untraced and then replays the same operations through timing shims
// around each layer, checks that the replay reproduces the untraced
// simulated counts exactly, and prints the per-layer metrics.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload sweep-checked --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it starting with
// "#" describe the environment and the run.
package main

//sfs:allow detwallclock the benchmark times operations and set-up on the wall clock; nothing it measures feeds a simulated run

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and layerUnits name every metric the benchmark prints and
// its unit; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":                 "s",
	"runs_per_s":              "1/s",
	"sim_msgs_per_s":          "1/s",
	"alloc_mb_per_run":        "MB",
	"heap_live_mb":            "MB",
	"detections_per_s":        "1/s",
	"detect_p50_ms":           "ms",
	"detect_p99_ms":           "ms",
	"detect_ticks_p50":        "ticks",
	"detect_ticks_p99":        "ticks",
	"wire_msgs_per_detection": "count",
}

var layerUnits = map[string]string{
	"sweep.busy_ratio":             "ratio",
	"checker.witness_s":            "s/run",
	"checker.sfs_s":                "s/run",
	"checker.share":                "ratio",
	"checker.quorum_sets_per_run":  "count",
	"checker.subfamilies_per_run":  "count",
	"sim.self_s":                   "s/run",
	"sim.ns_per_msg":               "ns",
	"sim.events_per_run":           "count",
	"sim.timers_fired_per_run":     "count",
	"sim.links_live":               "count",
	"cluster.build_s":              "s/run",
	"core.calls":                   "count/run",
	"core.self_s":                  "s/run",
	"core.susp_sent_per_detection": "count",
	"core.quorum_size_p50":         "count",
	"topo.build_s":                 "s",
	"topo.links":                   "count",
	"netadv.decide_calls":          "count/run",
	"netadv.decide_s":              "s/run",
	"netadv.drop_ratio":            "ratio",
	"reliable.calls":               "count/run",
	"reliable.self_s":              "s/run",
	"reliable.retransmits_per_run": "count",
	"reliable.amplification":       "ratio",
	"reliable.useful_ratio":        "ratio",
	"byz.calls":                    "count/run",
	"byz.self_s":                   "s/run",
	"byz.convictions_per_run":      "count",
	"byz.masked_per_run":           "count",
	"byz.echo_amplification":       "ratio",
	"fd.heartbeats_per_run":        "count",
	"fd.false_suspicions_per_run":  "count",
	"runtime.handler_s":            "s",
	"runtime.transit_p50_us":       "us",
	"runtime.transit_p99_us":       "us",
	"runtime.timers_fired":         "count",
	"runtime.cluster_start_s":      "s",
	"host.gc_cycles_per_run":       "count",
	"host.gc_pause_s":              "s/run",
	"trace.overhead":               "ratio",
	"trace.spans":                  "count",
}

// workloadNames lists the workloads in BENCHMARK.json's order.
var workloadNames = []string{"sweep-checked", "gossip-10k", "faulty-stack", "live-detect"}

// newWorkload builds the named workload; tiny shrinks it for self-tests.
func newWorkload(name string, seed int64, tiny bool) (workload, error) {
	switch name {
	case "sweep-checked":
		w := newSweepChecked(seed, goruntime.NumCPU())
		if tiny {
			w.grid, w.seedsPerOp = w.grid[:1], 2
		}
		return w, nil
	case "gossip-10k":
		w := newGossip(seed)
		if tiny {
			w.n = 300
		}
		return w, nil
	case "faulty-stack":
		w := newFaultyStack(seed)
		if tiny {
			w.maxTime = 150
		}
		return w, nil
	case "live-detect":
		w := newLiveDetect(seed)
		if tiny {
			w.n, w.t = 6, 2
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, false); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, tiny bool) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 20, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	w, err := newWorkload(*name, *seed, tiny)
	if err != nil {
		return err
	}
	printHeader(stdout, *name, *seed, *seconds, *trace)
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = measureEndToEnd(w, budget, stdout)
	} else {
		path := filepath.Join(os.Getenv("PERFBENCH_OUT"), fmt.Sprintf("perfbench-spans-%s-%d.tsv", *name, *seed))
		res, err = measureLayers(w, budget, path, stdout)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// printHeader records what the numbers depend on, so results from
// different machines or commits are never compared unknowingly.
func printHeader(w io.Writer, name string, seed int64, seconds float64, trace int) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", name, seed, seconds, trace)
	fmt.Fprintf(w, "# env go=%s os=%s arch=%s nproc=%d gomaxprocs=%d commit=%s\n",
		goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), commit)
	fmt.Fprintf(w, "# seeds %s\n", seedLine(name, seed))
}

// seedLine names the seeds a workload derives from --seed.
func seedLine(name string, seed int64) string {
	switch name {
	case "sweep-checked":
		return fmt.Sprintf("operation k sweeps grid cell k mod 8 on seeds %d+8r..%d+8r+7, r = k div 8", seed*1_000_000, seed*1_000_000)
	case "gossip-10k":
		return fmt.Sprintf("topology gossip:8@%d, sim seed %d+k for operation k", seed, seed*1000)
	case "faulty-stack":
		return fmt.Sprintf("sim, plane and victim seed %d+k for operation k", seed*1_000_003)
	case "live-detect":
		return fmt.Sprintf("delay and victim seed %d+k for cluster k", seed*1000)
	}
	return ""
}

// setUp runs the workload's setup w.setupReps() times, each from a
// freshly collected heap, and returns the median host time in seconds,
// scaled to reference time by meter.
func setUp(w workload, meter *speedMeter) (float64, error) {
	times := make([]float64, 0, w.setupReps())
	for i := 0; i < w.setupReps(); i++ {
		goruntime.GC()
		before := meter.sample()
		t0 := hostNow(w)
		if err := w.setup(); err != nil {
			return 0, err
		}
		took := (hostNow(w) - t0).Seconds()
		times = append(times, took*factor(before, meter.sample()))
	}
	return quantile(times, 0.5), nil
}

// speedThreads is the number of threads w keeps busy, on which the speed
// meter runs its kernel, or 0 to leave w's host times unscaled. live-detect
// stays unscaled because its times are wall-clock latencies. gossip-10k
// does too: its runs take seconds, as long as the machine's speed holds,
// so samples taken before and after a run do not tell its speed during
// the run: ten scaled runs spread by 0.18, and the next ten, unscaled,
// by 0.04.
func speedThreads(w workload) int {
	switch w := w.(type) {
	case *sweepChecked:
		return w.workers
	case *faultyStack:
		return 1
	}
	return 0
}

// roundSize is the number of consecutive operations whose combined rates
// make one throughput sample: a whole pass over the grid on sweep-checked,
// whose operations are single cells of very different cost, else one.
func roundSize(w workload) int {
	if s, ok := w.(*sweepChecked); ok {
		return s.cells()
	}
	return 1
}

// measure runs whole rounds of operations until the budget is spent (at
// least one round), or exactly count operations when count > 0. Each
// operation is folded into the totals as it finishes, so the benchmark
// keeps only the samples its metrics need. The collector paces itself on
// the live heap and marks all of it in every cycle; the live heap is under
// a megabyte on most workloads, and the benchmark's bookkeeping must not
// weigh in.
//
// The meter samples the machine's speed before the first round and after
// each one; a round's host times are scaled to reference time by the
// samples on either side of it.
func measure(w workload, budget time.Duration, count int, g *traceLog, meter *speedMeter) *totals {
	_, live := w.(*liveDetect)
	t := &totals{round: roundSize(w), keepCounts: !live}
	deadline := time.Now().Add(budget)
	round := make([]opResult, 0, t.round)
	before := meter.sample()
	for k := 0; ; k++ {
		if count > 0 {
			if k == count {
				break
			}
		} else if k > 0 && k%t.round == 0 && time.Now().After(deadline) {
			break
		}
		round = append(round, w.op(k, g))
		if len(round) == t.round {
			after := meter.sample()
			f := factor(before, after)
			for i := range round {
				t.fold(&round[i], f)
			}
			round, before = round[:0], after
		}
	}
	return t
}

// totals sums operations.
type totals struct {
	window
	ops                      int
	runs, attempted, failed  int
	sent, events, detections int64
	timers, links, susp      int64
	retransmits, convictions int64
	masked, drops            int64
	hb, falseSusp            int64
	quorumSets               int
	subfamilies              float64
	ticks, detMs             []float64
	// Each operation's worst detection, in ms and ticks.
	worstMs, worstTicks []float64
	quorumSizes         intHist
	// Per-round rates, of which the end-to-end metrics report medians.
	runRate, msgRate, detRate, allocPerRun []float64
	// round is the number of operations per rate sample; cur sums the
	// current round.
	round int
	cur   opResult
	// counts holds each operation's simulated counts, in order, when
	// keepCounts is set: the traced pass must reproduce them.
	keepCounts bool
	counts     []simCounts
}

// fold adds operation o, whose host times scale to reference time by f,
// taking one rate sample per round.
func (t *totals) fold(o *opResult, f float64) {
	t.ops++
	t.add(o.window)
	t.runs += o.runs
	t.attempted += o.attempted
	t.failed += o.failed
	t.sent += o.sent
	t.events += o.events
	t.detections += int64(o.hist.detections)
	t.timers += o.timers
	t.links += o.links
	t.susp += o.hist.susp
	t.hb += o.hist.hb
	t.falseSusp += o.hist.falseSusp
	t.quorumSets += o.hist.quorumSets
	t.subfamilies += o.subfamilies
	t.retransmits += o.retransmits
	t.convictions += o.convictions
	t.masked += o.masked
	t.drops += o.drops
	worstTicks := 0.0
	for _, x := range o.hist.ticks {
		t.ticks = append(t.ticks, float64(x))
		worstTicks = math.Max(worstTicks, float64(x))
	}
	t.worstTicks = append(t.worstTicks, worstTicks)
	worstMs := 0.0
	for _, x := range o.detMs {
		t.detMs = append(t.detMs, x*f)
		worstMs = math.Max(worstMs, x*f)
	}
	t.worstMs = append(t.worstMs, worstMs)
	for _, q := range o.quorumSizes {
		t.quorumSizes.add(q)
	}
	if t.keepCounts {
		t.counts = append(t.counts, o.counts())
	}
	r := &t.cur
	r.took += time.Duration(float64(o.took) * f)
	r.alloc += o.alloc
	r.runs += o.runs
	r.sent += o.sent
	r.hist.detections += o.hist.detections
	if t.ops%t.round == 0 {
		secs := r.took.Seconds()
		t.runRate = append(t.runRate, ratio(float64(r.runs), secs))
		t.msgRate = append(t.msgRate, ratio(float64(r.sent), secs))
		t.detRate = append(t.detRate, ratio(float64(r.hist.detections), secs))
		t.allocPerRun = append(t.allocPerRun, ratio(float64(r.alloc)/1e6, float64(r.runs)))
		*r = opResult{}
	}
}

// scaleHostTime divides the host time behind the rates and the
// per-detection times by u, a pool's utilisation.
func (t *totals) scaleHostTime(u float64) {
	for _, rates := range [][]float64{t.runRate, t.msgRate, t.detRate} {
		for i := range rates {
			rates[i] *= u
		}
	}
	for i := range t.detMs {
		t.detMs[i] /= u
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB forces a collection and returns the live heap in MB while
// the workload still references its last result.
func liveHeapMB(w workload) float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	goruntime.KeepAlive(w.keep())
	return float64(ms.HeapAlloc) / 1e6
}

func measureEndToEnd(w workload, budget time.Duration, stdout io.Writer) (*result, error) {
	meter := newSpeedMeter(speedThreads(w))
	setup, err := setUp(w, meter)
	if err != nil {
		return nil, err
	}
	goruntime.GC()
	steal := stealMeter()
	t := measure(w, budget, 0, nil, meter)
	share, known := steal()
	fmt.Fprintf(stdout, "# machine %s\n", stealLine(share, known))
	fmt.Fprintf(stdout, "# speed %s\n", meter.line())
	if s, ok := w.(*sweepChecked); ok {
		u := s.utilisation(t, share)
		fmt.Fprintf(stdout, "# pool workers=%d cpu_s=%.3f wall_s=%.3f utilisation=%.4f\n", s.workers, t.took.Seconds(), t.wall.Seconds(), u)
		t.scaleHostTime(u)
	}
	secs := t.took.Seconds()
	p99Ms, p99Ticks := quantile(t.detMs, 0.99), quantile(t.ticks, 0.99)
	if _, live := w.(*liveDetect); live {
		// The 99th percentile of live detections follows the time a
		// shared machine's hypervisor steals from its CPUs (see
		// PREDICTIONS.md). The reported tail is steadier: each cluster's
		// worst detection, the median over clusters.
		p99Ms, p99Ticks = quantile(t.worstMs, 0.5), quantile(t.worstTicks, 0.5)
	}
	vals := map[string]float64{
		"setup_s":                 setup,
		"runs_per_s":              quantile(t.runRate, 0.5),
		"sim_msgs_per_s":          quantile(t.msgRate, 0.5),
		"alloc_mb_per_run":        quantile(t.allocPerRun, 0.5),
		"detections_per_s":        quantile(t.detRate, 0.5),
		"detect_p50_ms":           quantile(t.detMs, 0.5),
		"detect_p99_ms":           p99Ms,
		"detect_ticks_p50":        quantile(t.ticks, 0.5),
		"detect_ticks_p99":        p99Ticks,
		"wire_msgs_per_detection": ratio(float64(t.sent), float64(t.detections)),
	}
	fmt.Fprintf(stdout, "# ops=%d runs=%d host_s=%.3f detections=%d ms_samples=%d tick_samples=%d error_rate=%g\n",
		t.ops, t.runs, secs, t.detections, len(t.detMs), len(t.ticks), ratio(float64(t.failed), float64(t.attempted)))
	fmt.Fprintf(stdout, "# per-round runs/s p10=%.6g p50=%.6g p90=%.6g\n",
		quantile(t.runRate, 0.1), quantile(t.runRate, 0.5), quantile(t.runRate, 0.9))
	attempted, failed := t.attempted, t.failed
	// Measured last, when the totals are garbage: only the workload's last
	// result stays reachable.
	vals["heap_live_mb"] = liveHeapMB(w)
	return newResult(attempted, failed, vals, endToEndUnits), nil
}

func measureLayers(w workload, budget time.Duration, spanPath string, stdout io.Writer) (*result, error) {
	if _, err := setUp(w, nil); err != nil {
		return nil, err
	}
	// Untraced pass on half the budget, then the traced replay of exactly
	// the same operations.
	goruntime.GC()
	steal := stealMeter()
	p := measure(w, budget/2, 0, nil, nil)
	g := newTraceLog()
	t := measure(w, 0, p.ops, g, nil)
	fmt.Fprintf(stdout, "# machine %s\n", stealLine(steal()))
	// Simulated runs are deterministic, so the replay must match count for
	// count; live clusters run on real time and keep no counts.
	mismatched := 0
	for i := range p.counts {
		if p.counts[i] != t.counts[i] {
			mismatched++
		}
	}
	if err := g.write(spanPath); err != nil {
		return nil, err
	}
	runs := float64(t.runs)
	perRun := func(d time.Duration) float64 { return ratio(d.Seconds(), runs) }
	a := &g.agg
	// The layer directly below reliable: the interposer when it is on,
	// else the detector.
	below := &a[lCore]
	if a[lByz].calls > 0 {
		below = &a[lByz]
	}
	checker := a[lCheckerSFS].total + a[lCheckerW].total
	vals := map[string]float64{}
	for name := range layerUnits {
		vals[name] = 0
	}
	set := func(name string, v float64) { vals[name] = v }
	set("checker.witness_s", perRun(a[lCheckerW].total))
	set("checker.sfs_s", perRun(a[lCheckerSFS].total))
	set("sim.self_s", perRun(a[lSim].self))
	set("sim.ns_per_msg", ratio(float64(a[lSim].self.Nanoseconds()), float64(t.sent)))
	set("cluster.build_s", perRun(a[lBuild].self))
	set("core.calls", ratio(float64(a[lCore].calls), runs))
	set("core.self_s", perRun(a[lCore].self))
	set("core.susp_sent_per_detection", ratio(float64(t.susp), float64(t.detections)))
	set("core.quorum_size_p50", t.quorumSizes.quantile(0.5))
	set("netadv.decide_calls", ratio(float64(a[lNetadv].calls), runs))
	set("netadv.decide_s", perRun(a[lNetadv].total))
	set("netadv.drop_ratio", ratio(float64(t.drops), float64(a[lNetadv].calls)))
	set("reliable.calls", ratio(float64(a[lReliable].calls), runs))
	set("reliable.self_s", perRun(a[lReliable].self))
	set("byz.calls", ratio(float64(a[lByz].calls), runs))
	set("byz.self_s", perRun(a[lByz].self))
	if a[lReliable].calls > 0 {
		set("reliable.retransmits_per_run", ratio(float64(t.retransmits), runs))
		set("reliable.amplification", ratio(float64(a[lReliable].sends), float64(below.sends)))
		set("reliable.useful_ratio", ratio(float64(below.recvs), float64(a[lReliable].recvs)))
	}
	if a[lByz].calls > 0 {
		set("byz.convictions_per_run", ratio(float64(t.convictions), runs))
		set("byz.masked_per_run", ratio(float64(t.masked), runs))
		set("byz.echo_amplification", ratio(float64(a[lByz].sends), float64(a[lCore].sends)))
	}
	if a[lSim].calls > 0 {
		set("sim.events_per_run", ratio(float64(t.events), runs))
		set("sim.timers_fired_per_run", ratio(float64(t.timers), runs))
		set("sim.links_live", ratio(float64(t.links), runs))
	}
	set("host.gc_cycles_per_run", ratio(float64(p.gcCycles), float64(p.runs)))
	set("host.gc_pause_s", ratio(p.gcPause.Seconds(), float64(p.runs)))
	set("trace.overhead", ratio(t.took.Seconds(), p.took.Seconds())-1)
	set("trace.spans", float64(spanCount(a)))
	w.layers(vals, t)
	if busy := runBusy(w, t); busy > 0 {
		set("checker.share", checker.Seconds()/busy)
	}
	fmt.Fprintf(stdout, "# ops=%d runs=%d untraced_s=%.3f traced_s=%.3f untraced_gcs=%d traced_gcs=%d count_mismatches=%d span_file=%s\n",
		p.ops, p.runs, p.took.Seconds(), t.took.Seconds(), p.gcCycles, t.gcCycles, mismatched, spanPath)
	printShares(stdout, a)
	return newResult(t.attempted+p.attempted, t.failed+p.failed+mismatched, vals, layerUnits), nil
}

// runBusy is the traced pass's time inside operations: worker time for the
// sweep, operation host time otherwise.
func runBusy(w workload, t *totals) float64 {
	if s, ok := w.(*sweepChecked); ok {
		return s.busy.Seconds()
	}
	return t.took.Seconds()
}

func spanCount(a *[numLayers]layerAgg) int64 {
	var n int64
	for _, l := range a {
		n += l.calls
	}
	return n
}

// printShares prints every layer's self time and share of the traced
// self time, largest first.
func printShares(w io.Writer, a *[numLayers]layerAgg) {
	var total time.Duration
	order := make([]layer, 0, numLayers)
	for l := layer(0); l < numLayers; l++ {
		total += a[l].self
		if a[l].calls > 0 {
			order = append(order, l)
		}
	}
	sort.Slice(order, func(i, j int) bool { return a[order[i]].self > a[order[j]].self })
	for _, l := range order {
		fmt.Fprintf(w, "# layer %-16s calls=%-10d self_s=%-10.4f share=%.3f\n", l, a[l].calls, a[l].self.Seconds(), ratio(a[l].self.Seconds(), total.Seconds()))
	}
}

func newResult(attempted, failed int, vals map[string]float64, units map[string]string) *result {
	res := &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(units)),
	}
	for name, unit := range units {
		v := vals[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return res
}

// stealMeter starts measuring the share of the machine's CPU time its
// hypervisor stole, from the steal column of /proc/stat; the returned
// function reports the share since the start, and false if it is unknown.
// Wall-clock metrics, all of live-detect's, degrade with it.
func stealMeter() func() (float64, bool) {
	s0, t0, ok0 := cpuTicks()
	return func() (float64, bool) {
		s1, t1, ok1 := cpuTicks()
		if !ok0 || !ok1 || t1 <= t0 {
			return 0, false
		}
		return float64(s1-s0) / float64(t1-t0), true
	}
}

// stealLine formats a steal share for the "# machine" line.
func stealLine(share float64, known bool) string {
	if !known {
		return "steal=unknown"
	}
	return fmt.Sprintf("steal=%.1f%%", 100*share)
}

// cpuTicks returns the machine's stolen and total CPU ticks.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
