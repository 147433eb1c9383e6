package main

import (
	"failstop/internal/byz"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/reliable"
	"failstop/internal/sim"
	"failstop/internal/sweep"
)

// simCluster is one simulated cluster, built either by cluster.New (the
// measured path) or by tracedCluster, which wires the identical stack with
// a timing shim around every layer.
type simCluster struct {
	sim       *sim.Sim
	detectors []*core.Detector
	suspectAt func(t int64, i, j model.ProcID)
}

func fromCluster(c *cluster.Cluster) *simCluster {
	return &simCluster{sim: c.Sim, detectors: c.Detectors, suspectAt: c.SuspectAt}
}

// tracedCluster mirrors cluster.New for opts, shimming the detector, the
// Byzantine interposer and the reliable endpoint of every process, and the
// fault plane's Decide when opts.Sim.Link is set. The stack must stay
// call-for-call identical to cluster.New: the traced pass checks that it
// reproduces the untraced pass's simulated counts exactly.
func tracedCluster(opts cluster.Options, tr *tracer, drops *int64) *simCluster {
	n := opts.Det.N
	if opts.Sim.N == 0 {
		opts.Sim.N = n
	}
	if opts.Sim.Link != nil {
		opts.Sim.Link = timedLink(opts.Sim.Link, tr, drops)
	}
	s := sim.New(opts.Sim)
	c := &simCluster{sim: s, detectors: make([]*core.Detector, n+1)}
	// wrapCtx[p] turns the host context into the one the detector sees,
	// mirroring how cluster.SuspectAt threads an injection through the
	// endpoints.
	wrapCtx := make([]func(node.Context) node.Context, n+1)
	coreShims := make([]*shim, n+1)
	for p := model.ProcID(1); int(p) <= n; p++ {
		var fd core.Component
		if opts.FD != nil {
			fd = opts.FD(p)
		}
		var app core.App
		if opts.App != nil {
			app = opts.App(p)
		}
		d := core.NewDetector(opts.Det, fd, app)
		c.detectors[p] = d
		top := newShim(d, lCore, tr)
		coreShims[p] = top
		var h node.Handler = top
		var bz *byz.Endpoint
		var bzShim *shim
		if opts.Byzantine.Enabled {
			bz = byz.Wrap(top, opts.Byzantine)
			bz.SetSpans(opts.Sim.Spans)
			bz.SetConvict(func(ctx node.Context, culprit model.ProcID) {
				d.Suspect(ctx, culprit)
			})
			bzShim = newShim(bz, lByz, tr)
			h = bzShim
		}
		var ep *reliable.Endpoint
		var epShim *shim
		if opts.Reliable.Enabled {
			ep = reliable.Wrap(h, opts.Reliable)
			ep.SetSpans(opts.Sim.Spans)
			epShim = newShim(ep, lReliable, tr)
			h = epShim
		}
		outer := h.(*shim)
		outer.outer, outer.host = true, lSim
		if epShim != nil {
			h = reliableShim{outer}
		}
		s.SetHandler(p, h)
		wrapCtx[p] = func(ctx node.Context) node.Context {
			if epShim != nil {
				ctx = ep.Context(epShim.wrap(ctx))
			}
			if bzShim != nil {
				ctx = bz.Context(bzShim.wrap(ctx))
			}
			return top.wrap(ctx)
		}
	}
	c.suspectAt = func(t int64, i, j model.ProcID) {
		d, wrap := c.detectors[i], wrapCtx[i]
		s.At(t, i, func(ctx node.Context) {
			tr.begin(lCore)
			d.Suspect(wrap(ctx), j)
			tr.end()
		})
	}
	return c
}

// simRun is one simulated run. win covers cluster construction through
// result.
type simRun struct {
	c   *simCluster
	r   *sim.Result
	win window
}

// runSim builds opts with cluster.New, or with the traced mirror into g
// when g is non-nil, injects faults, and runs the cluster.
func runSim(opts cluster.Options, g *traceLog, run int, drops *int64, faults []sweep.Fault) simRun {
	var tr *tracer
	m := startMark()
	var c *simCluster
	if g == nil {
		c = fromCluster(cluster.New(opts))
	} else {
		tr = g.tracer(run)
		tr.begin(lBuild)
		c = tracedCluster(opts, tr, drops)
		tr.end()
	}
	for _, f := range faults {
		switch f.Kind {
		case sweep.FaultCrash:
			c.sim.CrashAt(f.At, f.Proc)
		case sweep.FaultSuspect:
			c.suspectAt(f.At, f.Proc, f.Target)
		}
	}
	if tr != nil {
		tr.begin(lSim)
	}
	r := c.sim.Run()
	if tr != nil {
		tr.end()
	}
	out := simRun{c: c, r: r, win: m.stop()}
	if tr != nil {
		g.merge(tr)
	}
	return out
}

// quorumStarved reports whether a live process began a detection it never
// completed.
func (c *simCluster) quorumStarved() bool {
	for _, d := range c.detectors[1:] {
		if !d.Crashed() && d.Detecting() {
			return true
		}
	}
	return false
}

// quorumSizes appends the size of every completed detection's quorum.
func (c *simCluster) quorumSizes(out []int) []int {
	for _, d := range c.detectors[1:] {
		for _, q := range d.Quorums() {
			out = append(out, len(q))
		}
	}
	return out
}
