package cmdstream

import (
	"sync"
	"testing"

	"pinatubo/internal/chansim"
	"pinatubo/internal/ddr"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/workload"
)

func TestKindString(t *testing.T) {
	if KindRequest.String() != "request" || KindVerify.String() != "verify" {
		t.Error("kind names wrong")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Errorf("unknown kind = %q", Kind(7).String())
	}
	if Kind(-3).String() != "Kind(-3)" {
		t.Errorf("negative kind = %q", Kind(-3).String())
	}
}

func TestProgramFold(t *testing.T) {
	var p Program
	p.Emit(Instr{Kind: KindRequest, Seconds: 1e-7, Joules: 3e-9})
	p.Emit(Instr{Kind: KindVerify, Seconds: 2e-7, Joules: 5e-9})
	var q Program
	q.Emit(Instr{Kind: KindRequest, Seconds: 4e-7, Joules: 7e-9})
	p.Append(q)

	if p.Len() != 3 {
		t.Fatalf("Len=%d want 3", p.Len())
	}
	if p.Requests() != 2 {
		t.Errorf("Requests=%d want 2 (verify passes are not requests)", p.Requests())
	}
	// The fold must replay the exact float-addition order of the live
	// accounting it replaced.
	var want workload.Cost
	for _, in := range p.Instrs {
		want.Add(workload.Cost{Seconds: in.Seconds, Joules: in.Joules})
	}
	if got := p.Cost(); got != want {
		t.Errorf("Cost=%+v want %+v", got, want)
	}
}

func TestProgramChannel(t *testing.T) {
	var empty Program
	if empty.Channel() != 0 {
		t.Error("empty program channel != 0")
	}
	// MRS commands carry no bank address; the first addressed command wins.
	var p Program
	p.Emit(Instr{Kind: KindRequest, Cmds: []ddr.Cmd{
		{Kind: ddr.CmdMRS},
		{Kind: ddr.CmdAct, Addr: memarch.RowAddr{Channel: 2, Bank: 5}},
	}})
	if p.Channel() != 2 {
		t.Errorf("Channel=%d want 2", p.Channel())
	}
	var v Program
	v.Emit(Instr{Kind: KindVerify, Addr: memarch.RowAddr{Channel: 3}, Seconds: 1e-8})
	if v.Channel() != 3 {
		t.Errorf("verify-only Channel=%d want 3", v.Channel())
	}
}

func TestProgramRequestLowering(t *testing.T) {
	timing := nvm.Get(nvm.PCM).Timing
	bus := ddr.DefaultBus()
	geo := memarch.Default()
	cmds := []ddr.Cmd{
		{Kind: ddr.CmdMRS},
		{Kind: ddr.CmdAct, Addr: memarch.RowAddr{Bank: 3}},
		{Kind: ddr.CmdPre, Addr: memarch.RowAddr{Bank: 3}},
	}
	var p Program
	p.Emit(Instr{Kind: KindRequest, Cmds: cmds, Seconds: 1e-7})
	p.Emit(Instr{Kind: KindVerify, Addr: memarch.RowAddr{Bank: 3}, Seconds: 5e-8})
	p.Emit(Instr{Kind: KindVerify, Addr: memarch.RowAddr{Bank: 3}, Seconds: 0, Joules: 1e-9})

	req := p.Request(timing, bus, geo)
	if req.Channel != 0 {
		t.Errorf("req channel = %d", req.Channel)
	}
	if cap(req.Cmds) != len(req.Cmds) {
		t.Errorf("request commands allocated at %d, used %d: want one slice at its final length", cap(req.Cmds), len(req.Cmds))
	}
	ref := chansim.FromDDR(cmds, timing, bus, geo)
	if len(req.Cmds) != len(ref.Cmds)+1 {
		t.Fatalf("lowered %d cmds, want %d FromDDR cmds + 1 verify slot (zero-second verify must be skipped)",
			len(req.Cmds), len(ref.Cmds))
	}
	for i, c := range ref.Cmds {
		if req.Cmds[i] != c {
			t.Errorf("cmd %d = %+v, FromDDR prices %+v", i, req.Cmds[i], c)
		}
	}
	last := req.Cmds[len(req.Cmds)-1]
	want := chansim.Cmd{
		Issue:    timing.TCMD,
		Exec:     5e-8,
		Resource: chansim.BankResource(memarch.RowAddr{Bank: 3}, geo),
	}
	if last != want {
		t.Errorf("verify slot = %+v want %+v", last, want)
	}
}

// TestCacheBoundedByMaxEntries pins the population bound: storing one
// more distinct key than MaxEntries empties the full cache first, counts
// every dropped entry as an eviction, and leaves the newest entry served.
func TestCacheBoundedByMaxEntries(t *testing.T) {
	c := NewCache()
	var k KeyBuffer
	store := func(i int) {
		k.Reset()
		k.Int(i)
		c.Store(k.Bytes(), i)
	}
	for i := 0; i < MaxEntries; i++ {
		store(i)
	}
	if st := c.Stats(); st.Entries != MaxEntries || st.Evictions != 0 {
		t.Fatalf("after %d stores: %+v, want %d entries and no evictions", MaxEntries, st, MaxEntries)
	}
	store(MaxEntries)
	if st := c.Stats(); st.Entries != 1 || st.Evictions != MaxEntries {
		t.Fatalf("after one more store: %+v, want 1 entry and %d evictions", st, MaxEntries)
	}
	if e, ok := c.Lookup(k.Bytes()); !ok || e.(int) != MaxEntries {
		t.Errorf("newest entry lookup = %v, %v", e, ok)
	}
	k.Reset()
	k.Int(0)
	if _, ok := c.Lookup(k.Bytes()); ok {
		t.Error("an evicted entry was still served")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after one hit and one miss: %+v", st)
	}
}

// TestCacheConcurrentUse looks up and stores from several goroutines at
// once, as a System's shard workers and its owner do, with enough
// distinct keys between them to empty the cache on the way. Every lookup
// must be counted once, a hit must return the value stored under its key,
// and the population must stay within MaxEntries. Under -race it is the
// cache's own lock check.
func TestCacheConcurrentUse(t *testing.T) {
	const workers, perWorker = 4, MaxEntries / 2
	c := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var k KeyBuffer
			for i := 0; i < perWorker; i++ {
				// Half the keys are shared with the next worker.
				key := w*perWorker/2 + i
				k.Reset()
				k.Int(key)
				if e, ok := c.Lookup(k.Bytes()); ok {
					if e.(int) != key {
						t.Errorf("key %d served %v", key, e)
						return
					}
					continue
				}
				c.Store(k.Bytes(), key)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*perWorker {
		t.Errorf("%+v: %d lookups counted, want %d", st, st.Hits+st.Misses, workers*perWorker)
	}
	if st.Entries > MaxEntries || st.Evictions == 0 {
		t.Errorf("%+v: want at most %d entries after at least one eviction", st, MaxEntries)
	}
}
