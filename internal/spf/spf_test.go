package spf_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"response/internal/spf"
	"response/internal/topo"
	"response/internal/topogen"
)

// grid builds a 3x3 grid of routers with uniform 10 Mbps / 1 ms links.
func grid(t *testing.T) (*topo.Topology, [9]topo.NodeID) {
	t.Helper()
	tp := topo.New("grid3")
	var n [9]topo.NodeID
	for i := 0; i < 9; i++ {
		n[i] = tp.AddNode(string(rune('a'+i)), topo.KindRouter)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			i := r*3 + c
			if c < 2 {
				tp.AddLink(n[i], n[i+1], 10*topo.Mbps, 0.001)
			}
			if r < 2 {
				tp.AddLink(n[i], n[i+3], 10*topo.Mbps, 0.001)
			}
		}
	}
	return tp, n
}

func TestShortestPathLatency(t *testing.T) {
	tp, n := grid(t)
	p, ok := spf.ShortestPath(tp, n[0], n[8], spf.Options{})
	if !ok {
		t.Fatal("no path")
	}
	if p.Len() != 4 {
		t.Errorf("corner-to-corner hops = %d, want 4", p.Len())
	}
	if err := p.Check(tp); err != nil {
		t.Error(err)
	}
	if p.Origin(tp) != n[0] || p.Destination(tp) != n[8] {
		t.Error("endpoints wrong")
	}
}

func TestShortestPathSameNode(t *testing.T) {
	tp, n := grid(t)
	p, ok := spf.ShortestPath(tp, n[0], n[0], spf.Options{})
	if !ok || !p.Empty() {
		t.Error("self path should be empty and ok")
	}
}

func TestInvCapPrefersFatPipes(t *testing.T) {
	// A->B direct on thin link, A->C->B on fat links. InvCap picks the
	// detour; latency picks the direct hop.
	tp := topo.New("invcap")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	c := tp.AddNode("C", topo.KindRouter)
	tp.AddLink(a, b, 10*topo.Mbps, 0.001)
	tp.AddLink(a, c, 1*topo.Gbps, 0.001)
	tp.AddLink(c, b, 1*topo.Gbps, 0.001)
	lat, _ := spf.ShortestPath(tp, a, b, spf.Options{Weight: spf.Latency()})
	inv, _ := spf.ShortestPath(tp, a, b, spf.Options{Weight: spf.InvCap()})
	if lat.Len() != 1 {
		t.Errorf("latency path hops = %d, want 1", lat.Len())
	}
	if inv.Len() != 2 {
		t.Errorf("InvCap path hops = %d, want 2", inv.Len())
	}
}

func TestHopsWeight(t *testing.T) {
	tp, n := grid(t)
	p, _ := spf.ShortestPath(tp, n[0], n[2], spf.Options{Weight: spf.Hops()})
	if p.Len() != 2 {
		t.Errorf("hops = %d, want 2", p.Len())
	}
}

func TestActiveSetRestriction(t *testing.T) {
	tp, n := grid(t)
	active := topo.AllOn(tp)
	// Cut the top row after a: path must detour.
	ab, _ := tp.ArcBetween(n[0], n[1])
	active.Link[tp.Arc(ab).Link] = false
	p, ok := spf.ShortestPath(tp, n[0], n[2], spf.Options{Active: active})
	if !ok {
		t.Fatal("no path with detour available")
	}
	if p.Len() <= 2 {
		t.Errorf("detour hops = %d, want > 2", p.Len())
	}
	// Power everything off: unreachable.
	off := topo.AllOff(tp)
	if _, ok := spf.ShortestPath(tp, n[0], n[2], spf.Options{Active: off}); ok {
		t.Error("path found on powered-off network")
	}
}

func TestAvoidPredicate(t *testing.T) {
	tp, n := grid(t)
	p, ok := spf.ShortestPath(tp, n[0], n[2], spf.Options{
		Avoid: func(a topo.Arc) bool { return a.To == n[1] || a.From == n[1] },
	})
	if !ok {
		t.Fatal("no avoiding path")
	}
	if p.UsesNode(tp, n[1]) {
		t.Error("avoided node used")
	}
}

func TestHostsDoNotTransit(t *testing.T) {
	// A - H - B where H is a host, plus a long router detour A-R-B.
	tp := topo.New("host-transit")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	h := tp.AddNode("H", topo.KindHost)
	r := tp.AddNode("R", topo.KindRouter)
	tp.AddLink(a, h, topo.Gbps, 0.001)
	tp.AddLink(h, b, topo.Gbps, 0.001)
	tp.AddLink(a, r, topo.Mbps, 0.010)
	tp.AddLink(r, b, topo.Mbps, 0.010)
	p, ok := spf.ShortestPath(tp, a, b, spf.Options{})
	if !ok {
		t.Fatal("no path")
	}
	if p.UsesNode(tp, h) {
		t.Error("path transits a host")
	}
	// But a host can be an endpoint.
	p, ok = spf.ShortestPath(tp, a, h, spf.Options{})
	if !ok || p.Destination(tp) != h {
		t.Error("host endpoint unreachable")
	}
	// And a host can originate.
	p, ok = spf.ShortestPath(tp, h, b, spf.Options{})
	if !ok || p.Origin(tp) != h {
		t.Error("host origin failed")
	}
}

func TestKShortestProperties(t *testing.T) {
	tp, n := grid(t)
	paths := spf.KShortest(tp, n[0], n[8], 6, spf.Options{})
	if len(paths) < 4 {
		t.Fatalf("got %d paths", len(paths))
	}
	seen := map[string]bool{}
	prev := -1.0
	for i, p := range paths {
		if err := p.Check(tp); err != nil {
			t.Errorf("path %d: %v", i, err)
		}
		if p.Origin(tp) != n[0] || p.Destination(tp) != n[8] {
			t.Errorf("path %d endpoints wrong", i)
		}
		if seen[p.Key()] {
			t.Errorf("duplicate path %d", i)
		}
		seen[p.Key()] = true
		w := spf.PathWeight(tp, p, spf.Options{})
		if w < prev-1e-12 {
			t.Errorf("paths not sorted: %v after %v", w, prev)
		}
		prev = w
	}
}

func TestKShortestOnePathGraph(t *testing.T) {
	tp := topo.New("line2")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	tp.AddLink(a, b, topo.Mbps, 0.001)
	paths := spf.KShortest(tp, a, b, 5, spf.Options{})
	if len(paths) != 1 {
		t.Errorf("paths = %d, want 1", len(paths))
	}
	if spf.KShortest(tp, a, b, 0, spf.Options{}) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestECMPEnumeratesEqualCost(t *testing.T) {
	tp, n := grid(t)
	// Corner to corner in a grid: C(4,2)=6 equal-hop paths.
	paths := spf.ECMPPaths(tp, n[0], n[8], 16, spf.Options{Weight: spf.Hops()})
	if len(paths) != 6 {
		t.Fatalf("ECMP paths = %d, want 6", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 4 {
			t.Errorf("non-shortest ECMP path of %d hops", p.Len())
		}
		if err := p.Check(tp); err != nil {
			t.Error(err)
		}
	}
	// Cap respected.
	if got := len(spf.ECMPPaths(tp, n[0], n[8], 3, spf.Options{Weight: spf.Hops()})); got != 3 {
		t.Errorf("capped ECMP = %d, want 3", got)
	}
}

func TestHashFlowDeterministicAndBounded(t *testing.T) {
	for flows := 0; flows < 100; flows++ {
		i := spf.HashFlow(1, 2, flows, 6)
		j := spf.HashFlow(1, 2, flows, 6)
		if i != j {
			t.Fatal("hash not deterministic")
		}
		if i < 0 || i >= 6 {
			t.Fatalf("hash out of range: %d", i)
		}
	}
	if spf.HashFlow(1, 2, 3, 0) != 0 {
		t.Error("n=0 should return 0")
	}
}

// Property: the shortest path weight is minimal among all simple paths
// found by exhaustive DFS on small random graphs.
func TestShortestIsMinimalProperty(t *testing.T) {
	f := func(seed uint32) bool {
		tp := randomGraph(int64(seed))
		if tp.NumNodes() < 2 {
			return true
		}
		o, d := topo.NodeID(0), topo.NodeID(tp.NumNodes()-1)
		got, ok := spf.ShortestPath(tp, o, d, spf.Options{})
		best := dfsBest(tp, o, d)
		if !ok {
			return math.IsInf(best, 1)
		}
		return math.Abs(spf.PathWeight(tp, got, spf.Options{})-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a connected-ish random topology of 4-7 routers.
func randomGraph(seed int64) *topo.Topology {
	tp := topo.New("rand")
	rng := seed
	next := func(n int64) int64 {
		rng = (rng*6364136223846793005 + 1442695040888963407)
		v := rng % n
		if v < 0 {
			v += n
		}
		return v
	}
	nodes := int(4 + next(4))
	ids := make([]topo.NodeID, nodes)
	for i := range ids {
		ids[i] = tp.AddNode(string(rune('A'+i)), topo.KindRouter)
	}
	// Spanning chain plus random chords.
	for i := 1; i < nodes; i++ {
		tp.AddLink(ids[i-1], ids[i], topo.Mbps, float64(1+next(5))/1000)
	}
	chords := int(next(int64(nodes)))
	for c := 0; c < chords; c++ {
		a := int(next(int64(nodes)))
		b := int(next(int64(nodes)))
		if a == b {
			continue
		}
		if _, dup := tp.ArcBetween(ids[a], ids[b]); dup {
			continue
		}
		tp.AddLink(ids[a], ids[b], topo.Mbps, float64(1+next(5))/1000)
	}
	return tp
}

// dfsBest exhaustively finds the min-latency simple path weight.
func dfsBest(tp *topo.Topology, o, d topo.NodeID) float64 {
	best := math.Inf(1)
	seen := make([]bool, tp.NumNodes())
	var dfs func(n topo.NodeID, w float64)
	dfs = func(n topo.NodeID, w float64) {
		if n == d {
			if w < best {
				best = w
			}
			return
		}
		seen[n] = true
		for _, aid := range tp.Out(n) {
			a := tp.Arc(aid)
			if !seen[a.To] {
				dfs(a.To, w+a.Latency)
			}
		}
		seen[n] = false
	}
	dfs(o, 0)
	return best
}

// genCases are the generated instances the metamorphic tests run on,
// one or two per topology family.
var genCases = []struct {
	fam  topogen.Family
	size int
}{
	{topogen.FamilyFatTree, 4},
	{topogen.FamilyWaxman, 30},
	{topogen.FamilyWaxman, 60},
	{topogen.FamilyRing, 10},
	{topogen.FamilyTorus, 3},
	{topogen.FamilyISP, 3},
}

func genTopo(t testing.TB, fam topogen.Family, size int, seed int64) *topogen.Instance {
	t.Helper()
	inst, err := topogen.Generate(topogen.Config{Family: fam, Size: size, Seed: seed})
	if err != nil {
		t.Fatalf("generate %s:%d: %v", fam, size, err)
	}
	return inst
}

// pairSample returns deterministic endpoint pairs for an instance.
func pairSample(inst *topogen.Instance, rng *rand.Rand, n int) [][2]topo.NodeID {
	eps := inst.Endpoints
	var out [][2]topo.NodeID
	for i := 0; i < n && len(eps) >= 2; i++ {
		o := eps[rng.Intn(len(eps))]
		d := eps[rng.Intn(len(eps))]
		if o == d {
			continue
		}
		out = append(out, [2]topo.NodeID{o, d})
	}
	return out
}

func samePaths(a, b []topo.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestUniformScalingPreservesPaths: scaling all weights by a constant
// preserves the chosen K-shortest paths (metamorphic).
func TestUniformScalingPreservesPaths(t *testing.T) {
	// Scaling by a power of two is exact in binary floating point, so
	// even the tie structure is preserved.
	scaled := spf.Options{Weight: func(a topo.Arc) float64 { return a.Latency * 4 }}
	for _, c := range genCases {
		inst := genTopo(t, c.fam, c.size, 1)
		g := inst.Topo
		rng := rand.New(rand.NewSource(7))
		for _, pair := range pairSample(inst, rng, 10) {
			o, d := pair[0], pair[1]
			a := spf.KShortest(g, o, d, 3, spf.Options{})
			b := spf.KShortest(g, o, d, 3, scaled)
			if !samePaths(a, b) {
				t.Fatalf("%s:%d %v→%v: scaled weights changed paths", c.fam, c.size, o, d)
			}
		}
	}
}

// TestRelabelingPreservesDistances: rebuilding the topology with
// permuted node insertion order (fresh IDs) must preserve pairwise
// distances (metamorphic: distance is a graph property, not an ID
// property).
func TestRelabelingPreservesDistances(t *testing.T) {
	inst := genTopo(t, topogen.FamilyWaxman, 24, 3)
	g := inst.Topo
	perm, remap := relabel(g, 99)
	ws, ws2 := spf.NewWorkspace(), spf.NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	for _, pair := range pairSample(inst, rng, 15) {
		o, d := pair[0], pair[1]
		p1, ok1 := ws.ShortestPath(g, o, d, spf.Options{})
		p2, ok2 := ws2.ShortestPath(perm, remap[o], remap[d], spf.Options{})
		if ok1 != ok2 {
			t.Fatalf("%v→%v: reachability changed under relabeling", o, d)
		}
		if !ok1 {
			continue
		}
		w1 := spf.PathWeight(g, p1, spf.Options{})
		w2 := spf.PathWeight(perm, p2, spf.Options{})
		if math.Abs(w1-w2) > 1e-9*(1+w1) {
			t.Fatalf("%v→%v: distance changed under relabeling: %v vs %v", o, d, w1, w2)
		}
	}
}

// relabel rebuilds g with nodes inserted in a permuted order, returning
// the new topology and old→new node ID mapping.
func relabel(g *topo.Topology, seed int64) (*topo.Topology, map[topo.NodeID]topo.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(g.NumNodes())
	nt := topo.New(fmt.Sprintf("%s-relabeled", g.Name))
	remap := make(map[topo.NodeID]topo.NodeID, g.NumNodes())
	for _, i := range order {
		n := g.Node(topo.NodeID(i))
		remap[n.ID] = nt.AddNode(fmt.Sprintf("r%d", i), n.Kind)
	}
	for l := 0; l < g.NumLinks(); l++ {
		lk := g.Link(topo.LinkID(l))
		ab := g.Arc(lk.AB)
		nt.AddLink(remap[lk.A], remap[lk.B], ab.Capacity, ab.Latency)
	}
	return nt, remap
}
