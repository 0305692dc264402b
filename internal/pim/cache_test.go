package pim

import (
	"math/rand"
	"reflect"
	"testing"

	"pinatubo/internal/analog"
	"pinatubo/internal/cmdstream"
	"pinatubo/internal/fault"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/sense"
)

// TestCachedControllerMatchesUncached runs one sequence of ops, host writes
// and reads on a controller with the program cache on and on an uncached
// twin, on PCM and on DRAM. The repeated OR is a cache hit, and after it
// MR4 must again hold (OR,7), as the uncached twin's does: a hit programs
// the mode register exactly as the miss that lowered it. Every Result, the
// ledgers, the rows and the global row and I/O buffers must agree after
// every step — a hit and a miss leave the digital path's result in the
// same buffer. The last step names a DRAM compute row as an operand: both
// twins must refuse it with the same error and leave MR4 as it was.
func TestCachedControllerMatchesUncached(t *testing.T) {
	for _, tech := range []nvm.Tech{nvm.PCM, nvm.DRAM} {
		t.Run(tech.String(), func(t *testing.T) {
			cached, plain := newCtl(t, tech), newCtl(t, tech)
			cached.SetProgramCache(cmdstream.NewCache())
			srcs := addrsInSubarray(9)
			// otherBank sits in another bank of the same rank: an op over it
			// and srcs[1] runs on the inter-bank digital path.
			otherBank := memarch.RowAddr{Bank: 3, Subarray: 0, Row: 5}
			// reserved is one of DRAM's compute rows (T0) in the operands'
			// subarray; on PCM it is an ordinary row.
			reserved := srcs[0]
			reserved.Row = memarch.Default().RowsPerSubarray - 2
			rng := rand.New(rand.NewSource(11))
			for _, a := range append(srcs, otherBank, reserved) {
				words := fillRow(t, cached, a, 4, rng)
				if err := plain.Memory().WriteRow(a, words); err != nil {
					t.Fatal(err)
				}
			}
			dst := srcs[8]
			// The backend senses at most MaxORRows rows at once (2 on
			// DRAM), so a deeper OR takes the digital path.
			or7 := func(c *Controller) (Result, error) {
				return c.execute(sense.OpOR, srcs[:7], nil, 256, &dst, c.MaxORRows() < 7)
			}
			read := func(c *Controller) (Result, error) { return c.ReadRow(dst, 256) }
			interBank := func(c *Controller) (Result, error) {
				return c.Execute(sense.OpXOR, []memarch.RowAddr{srcs[1], otherBank}, 256, nil)
			}
			steps := []struct {
				name string
				run  func(c *Controller) (Result, error)
			}{
				{"or7", or7},
				{"and2", func(c *Controller) (Result, error) { return c.Execute(sense.OpAND, srcs[:2], 256, &dst) }},
				{"or7-again", or7},
				{"host-write", func(c *Controller) (Result, error) { return c.WriteRowFromHost(srcs[7], []uint64{5, 6}, 128) }},
				{"host-write-again", func(c *Controller) (Result, error) { return c.WriteRowFromHost(srcs[7], []uint64{7, 8}, 128) }},
				{"read", read},
				{"xor2", func(c *Controller) (Result, error) { return c.Execute(sense.OpXOR, srcs[6:8], 256, nil) }},
				{"inter-bank", interBank},
				{"inter-bank-again", interBank},
				{"read-again", read},
				{"reserved-row", func(c *Controller) (Result, error) {
					return c.Execute(sense.OpAND, []memarch.RowAddr{srcs[0], reserved}, 256, &dst)
				}},
			}
			for _, st := range steps {
				before := plain.ModeRegister()
				got, gerr := st.run(cached)
				want, werr := st.run(plain)
				if st.name == "reserved-row" && tech == nvm.DRAM {
					if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
						t.Errorf("%s: cached err %v, uncached err %v; want the same refusal", st.name, gerr, werr)
					}
					if plain.ModeRegister() != before || cached.ModeRegister() != before {
						t.Errorf("%s: a refused lowering moved MR4 from %#x to %#x (cached %#x)",
							st.name, before, plain.ModeRegister(), cached.ModeRegister())
					}
				} else if gerr != nil || werr != nil {
					t.Fatalf("%s: cached err %v, uncached err %v", st.name, gerr, werr)
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
				for bank := 0; bank < memarch.Default().BanksPerChip; bank++ {
					if !reflect.DeepEqual(cached.Memory().GlobalBuffer(0, 0, bank), plain.Memory().GlobalBuffer(0, 0, bank)) {
						t.Errorf("%s: bank %d global row buffer differs between cached and uncached", st.name, bank)
					}
				}
				if !reflect.DeepEqual(cached.Memory().IOBuffer(0, 0), plain.Memory().IOBuffer(0, 0)) {
					t.Errorf("%s: I/O buffer differs between cached and uncached", st.name)
				}
			}
			// Hits: OR, host write, inter-bank XOR, read. The refused
			// DRAM lowering is a miss that stores nothing.
			if cs := cached.CacheStats(); cs.Hits != 4 || cs.Misses != 7 {
				t.Errorf("cache traffic %+v, want 4 hits and 7 misses", cs)
			}
			if !reflect.DeepEqual(cached.Ledger().Count, plain.Ledger().Count) {
				t.Errorf("cached ledger %v != uncached %v", cached.Ledger().Count, plain.Ledger().Count)
			}
			for _, a := range append(srcs, memarch.RowAddr{}, otherBank, reserved) {
				if !reflect.DeepEqual(cached.Memory().PeekRow(a), plain.Memory().PeekRow(a)) {
					t.Errorf("row %v differs between cached and uncached", a)
				}
			}
		})
	}
}

// TestProgramCacheSkipsVotedRequests pins the cache rule for voted
// requests: execute keys a lowering only when it has no replica sets. On
// a cache-eligible controller (no injector and no codec, as a fault-free
// replicated System under read-back verification has), a voted OR
// repeated over the same sets causes no cache traffic, and a plain OR over
// its primary set then misses and lowers one activation group, exactly as
// on an uncached twin. A key that ignored the replica sets would serve one
// shape's lowering to the other.
func TestProgramCacheSkipsVotedRequests(t *testing.T) {
	cached, plain := newCtl(t, nvm.PCM), newCtl(t, nvm.PCM)
	cached.SetProgramCache(cmdstream.NewCache())
	rows := addrsInSubarray(7)
	rng := rand.New(rand.NewSource(5))
	for _, a := range rows {
		words := fillRow(t, cached, a, 4, rng)
		if err := plain.Memory().WriteRow(a, words); err != nil {
			t.Fatal(err)
		}
	}
	sets := [][]memarch.RowAddr{rows[0:2], rows[2:4], rows[4:6]}
	dst := rows[6]
	voted := func(c *Controller) (Result, error) { return c.ExecuteVoted(sense.OpOR, sets, 256, &dst) }
	steps := []func(c *Controller) (Result, error){
		voted,
		voted,
		func(c *Controller) (Result, error) { return c.Execute(sense.OpOR, sets[0], 256, &dst) },
	}
	for i, step := range steps {
		got, gerr := step(cached)
		want, werr := step(plain)
		if gerr != nil || werr != nil {
			t.Fatalf("step %d: cached err %v, uncached err %v", i, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: cached result %+v != uncached %+v", i, got, want)
		}
	}
	if cs := cached.CacheStats(); cs.Hits != 0 || cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("cache traffic %+v, want only the plain OR's miss", cs)
	}
}

// TestAttachInjectorRefusesDRAM pins the one configuration-time refusal of
// fault injection on a backend whose sensing the resistive fault model
// does not describe: the DRAM controller rejects an injector (and keeps
// none), while PCM accepts it and either may detach with nil.
func TestAttachInjectorRefusesDRAM(t *testing.T) {
	for _, tech := range []nvm.Tech{nvm.PCM, nvm.DRAM} {
		c := newCtl(t, tech)
		inj, err := fault.New(fault.Config{Seed: 1, SenseFlipRate: 1e-3}, nvm.Get(nvm.PCM),
			analog.DefaultSenseConfig(), c.Memory().Geometry().RowBits(), c.Ledger())
		if err != nil {
			t.Fatal(err)
		}
		err = c.AttachInjector(inj)
		if refuse := tech == nvm.DRAM; refuse != (err != nil) {
			t.Errorf("%v: AttachInjector err = %v, want refusal %v", tech, err, refuse)
		}
		if tech == nvm.DRAM && c.Injector() != nil {
			t.Errorf("%v: a refused injector stayed attached", tech)
		}
		if err := c.AttachInjector(nil); err != nil || c.Injector() != nil {
			t.Errorf("%v: detaching: err %v, injector %v", tech, err, c.Injector())
		}
	}
}
