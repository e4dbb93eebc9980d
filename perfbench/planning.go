package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"response"
	"response/internal/verify"
	"response/lifecycle"
	"response/metrics"
	"response/simulate"
	"response/topogen"
	"response/trafficmatrix"
)

// timedPlan runs one plan inside a "core" span under parent and
// returns it with its wall time. The planner's stage boundaries
// (WithProgress) become core.<stage>_s samples and child spans.
func (b *bench) timedPlan(parent *spanRef, name string, pl *response.Planner, t *response.Topology,
	opts ...response.Option) (*response.Plan, float64, error) {

	var marks []time.Time
	var stages []string
	progress := response.WithProgress(func(p response.PlanProgress) {
		marks = append(marks, time.Now())
		stages = append(stages, p.Stage)
	})
	sp := parent.child("core", name)
	start := time.Now()
	plan, err := pl.Plan(context.Background(), t, append(opts, progress)...)
	sec := time.Since(start).Seconds()
	if err != nil {
		sp.end()
		return nil, sec, err
	}
	// Stage durations: always-on ends at its mark, on-demand at the last
	// on-demand round, failover at its mark, validation at "done".
	var onDemandEnd time.Time
	at := map[string]time.Time{}
	for i, s := range stages {
		at[s] = marks[i]
		if s == "on-demand" {
			onDemandEnd = marks[i]
		}
	}
	bounds := []struct {
		name       string
		start, end time.Time
	}{
		{"always_on", start, at["always-on"]},
		{"on_demand", at["always-on"], onDemandEnd},
		{"failover", onDemandEnd, at["failover"]},
		{"validate", at["failover"], at["done"]},
	}
	for _, s := range bounds {
		b.sample("core."+s.name+"_s", s.end.Sub(s.start).Seconds())
		sp.closed("core", s.name, s.start, s.end)
	}
	sp.end()
	return plan, sec, nil
}

// coldInstances are the cold-plan workload's networks: ColdDraws
// fat-trees, each with ColdEndpoints of its edge switches as endpoints,
// drawn by the generator from a seed the run seed fixes. Edge switches
// are interchangeable, so the draws differ only in node numbering,
// which still moves a plan's cost through tie-breaks (by ±12 % on
// fattree-6); a run plans every draw in turn so that it measures their
// average.
func coldInstances(seed int64, sz sizes) ([]*topogen.Instance, error) {
	insts := make([]*topogen.Instance, sz.ColdDraws)
	for i := range insts {
		var err error
		insts[i], err = topogen.Generate(topogen.Config{
			Family: topogen.FamilyFatTree, Size: sz.ColdFatTree, Seed: seed*1000 + int64(i),
			PeakUtil: 0.5, MaxEndpoints: sz.ColdEndpoints,
		})
		if err != nil {
			return nil, err
		}
	}
	return insts, nil
}

// runColdPlan times sequential cold plans through the facade's
// defaults, one client in a closed loop, cycling over the run's draws.
// Every plan of a draw must carry the draw's first fingerprint.
func runColdPlan(b *bench) error {
	insts, err := setup(b, func() ([]*topogen.Instance, func(), error) {
		insts, err := coldInstances(b.cfg.seed, b.cfg.sizes)
		return insts, nil, err
	})
	if err != nil {
		return err
	}
	planners := make([]*response.Planner, len(insts))
	for i, inst := range insts {
		planners[i] = response.NewPlanner(response.WithEndpoints(inst.Endpoints))
	}
	first := make([]*response.Plan, len(insts))
	n := 0
	b.measure(1, func(int) error {
		i := n % len(insts)
		n++
		op := b.rec.op("cold-plan")
		plan, sec, err := b.timedPlan(op, "Planner.Plan", planners[i], insts[i].Topo)
		op.end()
		if !b.op(err) {
			return err
		}
		b.sample("plan_s", sec)
		b.sample("step_s", sec)
		b.sample("cold_plan_s", sec)
		b.checkPlan(fmt.Sprintf("cold-%d", i), insts[i], plan)
		if first[i] == nil {
			first[i] = plan
		} else if plan.Fingerprint() != first[i].Fingerprint() {
			b.fail("cold plan %016x of %s differs from the run's first plan %016x",
				plan.Fingerprint(), insts[i].Topo.Name, first[i].Fingerprint())
		}
		return nil
	})
	if !b.cfg.traced || first[0] == nil {
		return nil
	}
	b.probePlanner(insts[0], first[0])
	b.probeRuntime(insts[0], first[0], planners[0])
	return b.probeService(insts[0])
}

// driftInstance is the drift-replan workload's network: the fixed
// Waxman instance the workload was sized on. The seed draws the drift
// sequence (see README.md for why the topology stays fixed).
func driftInstance(sz sizes) (*topogen.Instance, error) {
	return topogen.Generate(topogen.Config{
		Family: topogen.FamilyWaxman, Size: sz.DriftWaxman, Seed: 1,
		PeakUtil: 0.5, MaxEndpoints: sz.DriftEndpoints,
	})
}

// rig is a loaded online runtime: simulator, TE controller and plan
// lifecycle manager, with the instance's matrix spread over managed
// flows.
type rig struct {
	s      *simulate.Simulator
	ctrl   *simulate.Controller
	mgr    *lifecycle.Manager
	flows  []*simulate.Flow
	rates  []float64 // matched-matrix rate share of each flow
	slot   map[int]int
	derate float64
}

// newRig loads plan into a fresh runtime carrying inst.TM over `flows`
// managed flows. Demand is derated so that all of it fits on the
// always-on paths below the activation threshold: swaps then measure
// the retarget machinery, not congestion reaction.
func newRig(inst *topogen.Instance, plan *response.Plan, flows int, rt *metrics.Runtime) (*rig, error) {
	r := &rig{slot: map[int]int{}, derate: 1}
	if worst := verify.AlwaysOnMaxUtil(inst.Topo, plan, inst.TM); worst > 0 {
		r.derate = min(1, 0.2/worst)
	}
	r.s = simulate.New(inst.Topo, simulate.Opts{
		WakeUpDelay: 5, SleepAfterIdle: 60, PinnedOn: plan.AlwaysOnSet(), Metrics: rt,
	})
	r.ctrl = simulate.NewController(r.s, simulate.ControllerOpts{
		Threshold: 0.9, Gamma: 0.5, Period: 60, Metrics: rt,
	})
	demands := inst.TM.Demands()
	if len(demands) == 0 {
		return nil, fmt.Errorf("instance %s has no demand", inst.Topo.Name)
	}
	for i, d := range demands {
		ps, ok := plan.PathSet(d.O, d.D)
		if !ok {
			return nil, fmt.Errorf("plan has no paths for %d->%d", d.O, d.D)
		}
		k := flows / len(demands)
		if i < flows%len(demands) {
			k++
		}
		for j := 0; j < k; j++ {
			f, err := r.s.AddFlow(d.O, d.D, d.Rate*r.derate/float64(k), ps.Levels())
			if err != nil {
				return nil, err
			}
			r.ctrl.Manage(f)
			r.slot[f.ID] = len(r.flows)
			r.flows = append(r.flows, f)
			r.rates = append(r.rates, 1/float64(k))
		}
	}
	r.ctrl.Start()
	r.s.Run(120)
	r.mgr = lifecycle.New(r.s, r.ctrl, plan,
		func(context.Context, *response.TrafficMatrix) (*response.Plan, error) {
			return nil, fmt.Errorf("perfbench: the monitor must not replan")
		},
		lifecycle.Opts{CheckEvery: 1e12, NoPowerGate: true, Metrics: rt, OnSwap: r.swapped})
	r.mgr.Start()
	return r, nil
}

// swapped re-points a flow slot at its hot-swap replacement.
func (r *rig) swapped(old, nf *simulate.Flow) {
	if i, ok := r.slot[old.ID]; ok {
		delete(r.slot, old.ID)
		r.slot[nf.ID] = i
		r.flows[i] = nf
	}
}

// setDemand makes live the demand every flow carries (derated).
func (r *rig) setDemand(live *trafficmatrix.Matrix) {
	for i, f := range r.flows {
		r.s.SetDemand(f, live.Rate(f.O, f.D)*r.rates[i]*r.derate)
	}
}

// drain runs the simulator until the manager is idle again, in
// one-minute slices; it reports whether the swap drained within a
// simulated day.
func (r *rig) drain() bool {
	for i := 0; i < 1440 && r.mgr.State() != lifecycle.StateIdle; i++ {
		r.s.Run(r.s.Now() + 60)
	}
	return r.mgr.State() == lifecycle.StateIdle
}

// drifted returns inst.TM with every pair's rate scaled by an
// independent log-normal factor of spread sigma.
func drifted(inst *topogen.Instance, rng *rand.Rand, sigma float64) *trafficmatrix.Matrix {
	live := trafficmatrix.New()
	for _, d := range inst.TM.Demands() {
		live.Set(d.O, d.D, d.Rate*math.Exp(sigma*rng.NormFloat64()))
	}
	return live
}

// driftState is the drift-replan workload after setup.
type driftState struct {
	inst *topogen.Instance
	pl   *response.Planner
	rig  *rig
}

// runDriftReplan plans a Waxman instance once, loads it into a managed
// runtime, then runs seeded demand-drift steps: a warm replan with the
// live matrix as d_low, the hot swap of its result, a simulator run
// until the swap drains, and a warm replan of the unchanged inputs.
func runDriftReplan(b *bench) error {
	st, err := setup(b, func() (*driftState, func(), error) {
		inst, err := driftInstance(b.cfg.sizes)
		if err != nil {
			return nil, nil, err
		}
		pl := response.NewPlanner(response.WithEndpoints(inst.Endpoints))
		plan, err := pl.Plan(context.Background(), inst.Topo)
		if err != nil {
			return nil, nil, err
		}
		r, err := newRig(inst, plan, b.cfg.sizes.DriftFlows, nil)
		if err != nil {
			return nil, nil, err
		}
		return &driftState{inst: inst, pl: pl, rig: r}, r.mgr.Stop, nil
	})
	if err != nil {
		return err
	}
	defer st.rig.mgr.Stop()
	b.checkPlan("drift", st.inst, st.rig.mgr.CurrentPlan())
	rng := rand.New(rand.NewSource(b.cfg.seed))
	b.measure(1, func(int) error { return b.driftStep(st, rng) })
	if !b.cfg.traced {
		return nil
	}
	plan := st.rig.mgr.CurrentPlan()
	b.probePlanner(st.inst, plan)
	b.probeRuntime(st.inst, plan, st.pl)
	return b.probeService(st.inst)
}

// driftStep runs one drift step; checks run after its timed calls.
func (b *bench) driftStep(st *driftState, rng *rand.Rand) error {
	r := st.rig
	live := drifted(st.inst, rng, b.cfg.sizes.DriftSigma)
	r.setDemand(live)
	installed := r.mgr.CurrentPlan()
	op := b.rec.op("drift-step")
	start := time.Now()

	replan, sec, err := b.timedPlan(op, "Planner.Plan drift", st.pl, st.inst.Topo,
		response.WithLowMatrix(live), response.WithWarmStart(installed))
	if !b.op(err) {
		op.end()
		return err
	}
	b.sample("plan_s", sec)
	b.sample("drift_replan_s", sec)

	sp := op.child("lifecycle", "Manager.StageAndSwap")
	t0 := time.Now()
	err = r.mgr.StageAndSwap(replan)
	b.sample("swap_ms", msSince(t0))
	sp.end()
	if !b.op(err) {
		op.end()
		return err
	}

	sp = op.child("sim", "Simulator.Run drain")
	t0 = time.Now()
	if !r.drain() {
		err = fmt.Errorf("swap to %016x did not drain within a simulated day", replan.Fingerprint())
	}
	b.sample("drain_ms", msSince(t0))
	sp.end()
	if !b.op(err) {
		op.end()
		return err
	}

	again, sec, err := b.timedPlan(op, "Planner.Plan unchanged", st.pl, st.inst.Topo,
		response.WithLowMatrix(live), response.WithWarmStart(replan))
	op.end()
	b.sample("step_s", time.Since(start).Seconds())
	if !b.op(err) {
		return err
	}
	b.sample("unchanged_replan_s", sec)

	b.checkPlan("drift", st.inst, replan)
	b.checkPlan("drift", st.inst, again)
	if got := r.mgr.CurrentPlan().Fingerprint(); got != replan.Fingerprint() {
		b.fail("installed plan %016x after swapping in %016x", got, replan.Fingerprint())
	}
	if m := r.mgr.Metrics(); m.RejectedInvalid+m.RejectedPower+m.ReplanFailed > 0 {
		b.fail("lifecycle refused a staged plan: %+v", m)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
