package main

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The shared virtual machines this benchmark runs on change speed within
// seconds, and CPU time does not hide it. On a 2-vCPU virtual machine, the
// medians of 5 s windows of a fixed compute kernel ranged from 7.9 to
// 11.8 ms per batch within one 30 s run, at under 1% steal. Ten 20 s runs
// of sweep-checked then spread by 0.26 (quartile distance over the
// median) on CPU time, and two sets of ten differed in median by 23%. So
// the simulated workloads report host time in reference seconds: each
// measured stretch is scaled by refUnit over the time kernelUnit takes,
// on as many threads as the workload keeps busy, right before and right
// after the stretch. Five runs of sweep-checked that spread by 0.046 on
// CPU time spread by 0.009 scaled.

// refUnit is the thread CPU time of one kernelUnit that host times are
// scaled to: its median on the 2-vCPU virtual machine the bounds in
// BENCHMARK.json were set on. It only fixes the unit; it must not change,
// or results before and after stop being comparable.
const refUnit = 800 * time.Microsecond

// speedMeter runs the reference kernel on a fixed number of threads.
type speedMeter struct {
	bufs  [][]uint64
	maps  []map[uint64]uint64
	sinks []uint64 // keeps the kernel's result live
	// units holds every sample taken, for the "# speed" line.
	units []float64
}

// newSpeedMeter returns a meter for threads threads, or nil, which scales
// nothing, for none.
func newSpeedMeter(threads int) *speedMeter {
	if threads == 0 {
		return nil
	}
	s := &speedMeter{}
	for i := 0; i < threads; i++ {
		s.bufs = append(s.bufs, make([]uint64, 1<<15))
		s.maps = append(s.maps, make(map[uint64]uint64, 4096))
		s.sinks = append(s.sinks, kernelUnit(s.bufs[i], s.maps[i])) // fills the map
	}
	return s
}

// sample returns the mean thread CPU time of one kernel unit across the
// meter's threads, run side by side.
func (s *speedMeter) sample() time.Duration {
	if s == nil {
		return refUnit
	}
	times := make([]time.Duration, len(s.bufs))
	var wg sync.WaitGroup
	for i := range s.bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			goruntime.LockOSThread()
			defer goruntime.UnlockOSThread()
			t0 := threadCPU()
			s.sinks[i] += kernelUnit(s.bufs[i], s.maps[i])
			times[i] = threadCPU() - t0
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	mean := sum / time.Duration(len(times))
	s.units = append(s.units, float64(mean)/float64(time.Millisecond))
	return mean
}

// factor scales host time measured between two samples to reference
// time.
func factor(before, after time.Duration) float64 {
	return float64(refUnit) / (float64(before+after) / 2)
}

// line summarises the samples for the "# speed" line.
func (s *speedMeter) line() string {
	if s == nil {
		return "unscaled"
	}
	u := append([]float64(nil), s.units...)
	return fmt.Sprintf("threads=%d ref_unit_ms=%.3f unit_ms p10=%.3f p50=%.3f p90=%.3f samples=%d",
		len(s.bufs), float64(refUnit)/float64(time.Millisecond), quantile(u, 0.1), quantile(u, 0.5), quantile(u, 0.9), len(u))
}

// kernelUnit is a fixed batch of integer arithmetic, cache-resident
// random reads and writes, and map updates. It allocates nothing, so no
// collection runs on its account.
func kernelUnit(buf []uint64, m map[uint64]uint64) uint64 {
	x := uint64(88172645463325252)
	mask := uint64(len(buf) - 1)
	var s uint64
	for i := 0; i < 150_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		buf[j] += x
		s += buf[(j*31)&mask]
		if i&15 == 0 {
			m[x&4095] += s
		}
	}
	return s
}

// threadCPU returns the CPU time the calling thread has used, from the
// scheduler's nanosecond accounting.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}
