package main

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"time"

	"response"
	"response/internal/mcf"
	"response/internal/spf"
	"response/metrics"
	"response/topogen"
)

// The probes of a traced run time calls into one layer at a time, on
// the workload's own instance, from spans of their own ("probe" root
// operations), after the measured loop.

// repeat runs fn n times inside spans of layer and returns the median
// wall time in seconds.
func (b *bench) repeat(op *spanRef, layer, name string, n int, fn func()) float64 {
	var sec []float64
	for i := 0; i < n; i++ {
		sp := op.child(layer, name)
		start := time.Now()
		fn()
		sec = append(sec, time.Since(start).Seconds())
		sp.end()
	}
	return median(sec)
}

// probePlanner measures the planner's inner layers: one routing pass
// of the peak matrix on the all-on network, one maximum-scale search,
// one greedy subset descent per ordering on the capacity-binding
// matrix the on-demand stage sizes with, and shortest-path queries
// over sampled endpoint pairs.
func (b *bench) probePlanner(inst *topogen.Instance, plan *response.Plan) {
	t := inst.Topo
	op := b.trace.op("probe planner")
	defer op.end()

	peak := inst.TM.Demands()
	b.layer["mcf.route_pass_ms"] = 1e3 * b.repeat(op, "mcf", "RouteDemands", 5, func() {
		if _, err := mcf.RouteDemands(t, peak, mcf.RouteOpts{}); err != nil {
			b.fail("mcf.RouteDemands of the peak matrix: %v", err)
		}
	})
	b.layer["mcf.max_scale_ms"] = 1e3 * b.repeat(op, "mcf", "MaxFeasibleScale", 3, func() {
		mcf.MaxFeasibleScale(t, inst.Shape, mcf.RouteOpts{}, 0.05)
	})

	binding := inst.Shape.Scale(0.8 * inst.MaxScale).Demands()
	sum, worst := 0.0, 0.0
	for _, o := range []struct {
		name  string
		order mcf.Order
	}{{"power_desc", mcf.PowerDesc}, {"degree_asc", mcf.DegreeAsc}, {"power_asc", mcf.PowerAsc}, {"random", mcf.Random}} {
		sec := b.repeat(op, "mcf", "GreedyMinSubset "+o.name, 1, func() {
			_, _, err := mcf.GreedyMinSubset(t, binding, response.Cisco12000{}, mcf.GreedyOpts{
				Order: o.order, Seed: b.cfg.seed, KeepOn: plan.AlwaysOnSet(),
			})
			if err != nil {
				b.fail("mcf.GreedyMinSubset %s: %v", o.name, err)
			}
		})
		b.layer["mcf.descent_s."+o.name] = sec
		sum += sec
		worst = max(worst, sec)
	}
	b.layer["mcf.descent_sum_s"] = sum
	b.layer["mcf.descent_max_s"] = worst

	rng := rand.New(rand.NewSource(b.cfg.seed))
	eps := inst.Endpoints
	pairs := make([][2]response.NodeID, b.cfg.sizes.ProbePairs)
	for i := range pairs {
		o := rng.Intn(len(eps))
		d := (o + 1 + rng.Intn(len(eps)-1)) % len(eps)
		pairs[i] = [2]response.NodeID{eps[o], eps[d]}
	}
	ws := spf.NewWorkspace()
	perQuery := func(name string, fn func(p [2]response.NodeID)) float64 {
		return 1e6 / float64(len(pairs)) * b.repeat(op, "spf", name, 5, func() {
			for _, p := range pairs {
				fn(p)
			}
		})
	}
	b.layer["spf.dijkstra_us"] = perQuery("Workspace.ShortestPath", func(p [2]response.NodeID) {
		ws.ShortestPath(t, p[0], p[1], spf.Options{})
	})
	b.layer["spf.tree_us"] = perQuery("Workspace.ShortestTree", func(p [2]response.NodeID) {
		ws.ShortestTree(t, p[0], spf.Options{})
	})
	b.layer["spf.kshortest_us"] = perQuery("Workspace.KShortest", func(p [2]response.NodeID) {
		ws.KShortest(t, p[0], p[1], 5, spf.Options{})
	})
}

// probeRuntime loads plan into a fresh runtime with RigFlows flows and
// a metrics registry, runs one simulated hour, then hot-swaps in a warm
// replan for the instance's matrix and runs until the swap drains.
func (b *bench) probeRuntime(inst *topogen.Instance, plan *response.Plan, pl *response.Planner) {
	op := b.trace.op("probe runtime")
	defer op.end()
	rt := &metrics.Runtime{}
	r, err := newRig(inst, plan, b.cfg.sizes.RigFlows, rt)
	if err != nil {
		b.fail("runtime probe: %v", err)
		return
	}
	defer r.mgr.Stop()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := op.child("sim", "Simulator.Run hour")
	start := time.Now()
	r.s.Run(r.s.Now() + 3600)
	b.layer["sim.run_ms_per_sim_hour"] = msSince(start)
	sp.end()
	runtime.ReadMemStats(&after)
	b.layer["sim.allocs_per_sim_hour"] = float64(after.Mallocs - before.Mallocs)

	sp = op.child("core", "Planner.Plan replan")
	next, err := pl.Plan(context.Background(), inst.Topo, response.WithLowMatrix(inst.TM), response.WithWarmStart(plan))
	sp.end()
	if err != nil {
		b.fail("runtime probe replan: %v", err)
		return
	}
	b.layer["lifecycle.artifact_roundtrip_ms"] = 1e3 * b.repeat(op, "lifecycle", "artifact round trip", 5, func() {
		for _, p := range []*response.Plan{plan, next} {
			var buf bytes.Buffer
			if _, err := p.WriteTo(&buf); err != nil {
				b.fail("Plan.WriteTo: %v", err)
				return
			}
			back, err := response.ReadPlanFrom(&buf, inst.Topo)
			if err != nil || back.Fingerprint() != p.Fingerprint() {
				b.fail("artifact round trip of %016x: %v", p.Fingerprint(), err)
			}
		}
	})

	sp = op.child("lifecycle", "Manager.StageAndSwap")
	err = r.mgr.StageAndSwap(next)
	sp.end()
	if err != nil {
		b.fail("runtime probe swap: %v", err)
		return
	}
	sp = op.child("sim", "Simulator.Run drain")
	start = time.Now()
	if !r.drain() {
		b.fail("runtime probe swap did not drain")
	}
	b.layer["sim.drain_ms"] = msSince(start)
	sp.end()

	m := r.mgr.Metrics()
	b.layer["lifecycle.migrated_flows"] = float64(m.MigratedFlows)
	b.layer["lifecycle.unchanged"] = float64(m.Unchanged)
	b.layer["lifecycle.rejected"] = float64(m.RejectedInvalid + m.RejectedPower)
	b.layer["sim.alloc_flows_per_epoch"] = float64(rt.AllocFlows.Value()) / float64(max(rt.AllocEpochs.Value(), 1))
	b.layer["te.probe_rounds"] = float64(rt.ProbeRounds.Value())
	b.layer["te.shifts"] = float64(rt.Shifts.Value())
	b.layer["te.wake_requests"] = float64(rt.WakeRequests.Value())
}
