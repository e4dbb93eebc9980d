package spf_test

// FuzzKShortest drives Yen's algorithm over mutated generated
// topologies, including ones whose active subset is disconnected: for
// arbitrary (family, size, seed, link knockout, query) tuples it must
// not panic, every returned path must be a simple o→d path over active
// elements, weights must never decrease with no path repeated, and the
// "no path" verdict must agree with ShortestPath.

import (
	"math/rand"
	"testing"

	"response/internal/spf"
	"response/internal/topo"
	"response/internal/topogen"
)

func FuzzKShortest(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint16(0), uint16(3), uint8(3), uint64(0))
	f.Add(int64(2), uint8(1), uint8(20), uint16(2), uint16(9), uint8(5), uint64(0x5a5a))
	f.Add(int64(3), uint8(2), uint8(8), uint16(1), uint16(4), uint8(2), uint64(0xffff))
	f.Add(int64(4), uint8(3), uint8(3), uint16(5), uint16(6), uint8(4), uint64(1))
	f.Add(int64(5), uint8(4), uint8(3), uint16(7), uint16(2), uint8(1), uint64(0xdead))
	f.Fuzz(func(t *testing.T, seed int64, famIdx, size uint8, oi, di uint16, k uint8, knockout uint64) {
		fams := topogen.Families()
		fam := fams[int(famIdx)%len(fams)]
		var sz int
		switch fam {
		case topogen.FamilyFatTree:
			sz = 2 + 2*int(size%3)
		case topogen.FamilyWaxman:
			sz = 4 + int(size%28)
		case topogen.FamilyRing:
			sz = 3 + int(size%12)
		case topogen.FamilyTorus:
			sz = 3 + int(size%2)
		default: // isp
			sz = 3 + int(size%3)
		}
		inst, err := topogen.Generate(topogen.Config{Family: fam, Size: sz, Seed: 1 + seed%8})
		if err != nil {
			t.Skip()
		}
		g := inst.Topo
		opts := spf.Options{}
		active := topo.AllOn(g)
		if knockout != 0 {
			// Knock links out without re-enforcing invariants: the
			// active subgraph may be disconnected, which is the point.
			rng := rand.New(rand.NewSource(int64(knockout)))
			for l := range active.Link {
				if rng.Intn(4) == 0 {
					active.Link[l] = false
				}
			}
			opts.Active = active
		}
		eps := inst.Endpoints
		if len(eps) < 2 {
			t.Skip()
		}
		o := eps[int(oi)%len(eps)]
		d := eps[int(di)%len(eps)]
		if o == d {
			t.Skip()
		}
		kk := 1 + int(k%6)
		paths := spf.KShortest(g, o, d, kk, opts)
		_, ok := spf.ShortestPath(g, o, d, opts)
		if ok != (len(paths) > 0) {
			t.Fatalf("%v→%v k=%d: ShortestPath verdict %v but KShortest returned %d paths", o, d, kk, ok, len(paths))
		}
		if len(paths) > kk {
			t.Fatalf("%v→%v: %d paths for k=%d", o, d, len(paths), kk)
		}
		seen := map[string]bool{}
		prev := 0.0
		for i, p := range paths {
			if p.Empty() {
				t.Fatalf("%v→%v: path %d is empty", o, d, i)
			}
			if err := p.Check(g); err != nil {
				t.Fatalf("%v→%v: path %d: %v", o, d, i, err)
			}
			if p.Origin(g) != o || p.Destination(g) != d {
				t.Fatalf("%v→%v: path %d runs %v→%v", o, d, i, p.Origin(g), p.Destination(g))
			}
			if !p.ActiveUnder(g, active) {
				t.Fatalf("%v→%v: path %d uses a switched-off element: %v", o, d, i, p.Arcs)
			}
			key := p.Key()
			if seen[key] {
				t.Fatalf("%v→%v: path %d repeats %v", o, d, i, p.Arcs)
			}
			seen[key] = true
			w := spf.PathWeight(g, p, opts)
			if w < prev-1e-12*(1+prev) {
				t.Fatalf("%v→%v: path %d weight %v after %v", o, d, i, w, prev)
			}
			prev = w
		}
	})
}
