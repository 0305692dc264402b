package pim

import (
	"math/rand"
	"reflect"
	"testing"

	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// TestCachedControllerMatchesUncached runs one sequence of ops, host writes
// and reads on a controller with the program cache on and on an uncached
// twin, on PCM and on DRAM. The repeated OR is a cache hit, and after it
// MR4 must again hold (OR,7), as the uncached twin's does: a hit programs
// the mode register exactly as the miss that lowered it. Every Result and
// the ledgers must agree too.
func TestCachedControllerMatchesUncached(t *testing.T) {
	for _, tech := range []nvm.Tech{nvm.PCM, nvm.DRAM} {
		t.Run(tech.String(), func(t *testing.T) {
			cached, plain := newCtl(t, tech), newCtl(t, tech)
			cached.SetProgramCache(true)
			srcs := addrsInSubarray(9)
			rng := rand.New(rand.NewSource(11))
			for _, a := range srcs {
				words := fillRow(t, cached, a, 4, rng)
				if err := plain.Memory().WriteRow(a, words); err != nil {
					t.Fatal(err)
				}
			}
			dst := srcs[8]
			// The backend senses at most MaxORRows rows at once (2 on
			// DRAM), so a deeper OR takes the digital path.
			or7 := func(c *Controller) (*Result, error) {
				return c.execute(sense.OpOR, srcs[:7], 256, &dst, c.MaxORRows() < 7)
			}
			read := func(c *Controller) (*Result, error) { return c.ReadRow(dst, 256) }
			steps := []struct {
				name string
				run  func(c *Controller) (*Result, error)
			}{
				{"or7", or7},
				{"and2", func(c *Controller) (*Result, error) { return c.Execute(sense.OpAND, srcs[:2], 256, &dst) }},
				{"or7-again", or7},
				{"host-write", func(c *Controller) (*Result, error) { return c.WriteRowFromHost(srcs[7], []uint64{5, 6}, 128) }},
				{"host-write-again", func(c *Controller) (*Result, error) { return c.WriteRowFromHost(srcs[7], []uint64{7, 8}, 128) }},
				{"read", read},
				{"xor2", func(c *Controller) (*Result, error) { return c.Execute(sense.OpXOR, srcs[6:8], 256, nil) }},
				{"read-again", read},
			}
			for _, st := range steps {
				got, err := st.run(cached)
				if err != nil {
					t.Fatalf("%s: cached: %v", st.name, err)
				}
				want, err := st.run(plain)
				if err != nil {
					t.Fatalf("%s: uncached: %v", st.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: cached result %+v != uncached %+v", st.name, got, want)
				}
				gop, gn := cached.ModeRegister().Decode()
				wop, wn := plain.ModeRegister().Decode()
				if gop != wop || gn != wn {
					t.Errorf("%s: cached MR4 = (%v,%d), uncached (%v,%d)", st.name, gop, gn, wop, wn)
				}
				if st.name == "or7-again" && (gop != sense.OpOR || gn != 7) {
					t.Errorf("%s: MR4 = (%v,%d), want (OR,7)", st.name, gop, gn)
				}
			}
			if cs := cached.CacheStats(); cs.Hits != 3 || cs.Misses != 5 {
				t.Errorf("cache traffic %+v, want 3 hits (OR, host write, read) and 5 misses", cs)
			}
			if !reflect.DeepEqual(cached.Ledger().Count, plain.Ledger().Count) {
				t.Errorf("cached ledger %v != uncached %v", cached.Ledger().Count, plain.Ledger().Count)
			}
			for _, a := range append(srcs, memarch.RowAddr{}) {
				if !reflect.DeepEqual(cached.Memory().PeekRow(a), plain.Memory().PeekRow(a)) {
					t.Errorf("row %v differs between cached and uncached", a)
				}
			}
		})
	}
}
