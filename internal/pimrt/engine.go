package pimrt

import (
	"fmt"

	"pinatubo/internal/cmdstream"
	"pinatubo/internal/memarch"
	"pinatubo/internal/nvm"
	"pinatubo/internal/pim"
	"pinatubo/internal/sense"
	"pinatubo/internal/workload"
)

// Engine adapts the runtime to the workload.Engine interface used by the
// evaluation. It prices every request by placing the spec's operands on
// template rows of a memory of its own and running it through
// Scheduler.Execute, the same entry Apply, Batch and Plan use, so the
// figures and the library lower an op one way.
//
// The engine's one-step OR depth distinguishes "Pinatubo-2" (pairwise
// only, what STT-MRAM-class sensing would give) from "Pinatubo-128" (the
// PCM multi-row configuration). The scheduler chains wider ORs through
// their destination row, paying the intermediate writebacks — exactly why
// the paper's multi-row operations win.
type Engine struct {
	sched Scheduler
	geo   memarch.Geometry
	rows  []memarch.RowAddr // operand template scratch
	// cache memoises OpCost by spec: evaluation traces repeat identical
	// requests thousands of times, and the execution that prices a spec is
	// deterministic.
	cache map[costKey]workload.Cost
}

// costKey identifies a request for memoisation.
type costKey struct {
	op        sense.Op
	operands  int
	bits      int
	placement workload.Placement
	groups    string
}

func keyFor(spec workload.OpSpec) costKey {
	k := costKey{
		op:        spec.Op,
		operands:  spec.Operands,
		bits:      spec.Bits,
		placement: spec.Placement,
	}
	if spec.Groups != nil {
		var sb []byte
		for _, g := range spec.Groups {
			sb = fmt.Appendf(sb, "%d,", g)
		}
		k.groups = string(sb)
	}
	return k
}

// NewEngine builds a Pinatubo engine on a fresh memory of the given
// technology with the default geometry. maxRows caps the one-step OR depth
// (the technology's sensing margin may cap it lower).
func NewEngine(tech nvm.Tech, maxRows int) (*Engine, error) {
	return NewEngineWithGeometry(tech, maxRows, memarch.Default())
}

// NewEngineWithGeometry is NewEngine with an explicit memory organisation —
// the hook the ablation studies use to sweep the column-mux ratio.
func NewEngineWithGeometry(tech nvm.Tech, maxRows int, geo memarch.Geometry) (*Engine, error) {
	if maxRows < 2 {
		return nil, fmt.Errorf("pimrt: engine needs maxRows >= 2, got %d", maxRows)
	}
	// The depth is the architectural cap on open rows, so it lives where
	// the hardware keeps that cap: the technology parameters.
	p := nvm.Get(tech)
	p.MaxOpenRows = min(p.MaxOpenRows, maxRows)
	mem, err := memarch.NewMemory(geo, p)
	if err != nil {
		return nil, err
	}
	ctl, err := pim.NewController(mem, 0) // pricing engine: skip analog sampling
	if err != nil {
		return nil, err
	}
	ctl.SetProgramCache(cmdstream.NewCache())
	return &Engine{
		sched: Scheduler{Ctl: ctl},
		geo:   geo,
		cache: make(map[costKey]workload.Cost),
	}, nil
}

// Name implements workload.Engine.
func (e *Engine) Name() string { return fmt.Sprintf("Pinatubo-%d", e.MaxRows()) }

// MaxRows returns the engine's one-step OR depth.
func (e *Engine) MaxRows() int { return e.sched.Ctl.MaxORRows() }

// Parallelism implements workload.Engine: one in-flight PIM op per channel
// (multi-row activation is power hungry; one rank operates at a time).
func (e *Engine) Parallelism() float64 { return float64(e.geo.Channels) }

// OpCost implements workload.Engine. A request longer than a row runs as
// one request per row-sized chunk.
func (e *Engine) OpCost(spec workload.OpSpec) (workload.Cost, error) {
	if err := spec.Validate(); err != nil {
		return workload.Cost{}, err
	}
	key := keyFor(spec)
	if c, ok := e.cache[key]; ok {
		return c, nil
	}
	rowBits := e.geo.RowBits()
	var total workload.Cost
	for left := spec.Bits; left > 0; left -= rowBits {
		c, err := e.rowCost(spec, min(left, rowBits))
		if err != nil {
			return workload.Cost{}, err
		}
		total.Add(c)
	}
	e.cache[key] = total
	return total, nil
}

// rowCost prices one row-sized chunk of the request. AND and XOR have no
// multi-row form, so n operands chain pairwise through the destination:
// (a op b) op c ...; every other op is one scheduled operation.
func (e *Engine) rowCost(spec workload.OpSpec, bits int) (workload.Cost, error) {
	srcs, dst := e.place(spec)
	if spec.Op != sense.OpAND && spec.Op != sense.OpXOR {
		return e.execute(spec.Op, srcs, bits, dst)
	}
	var total workload.Cost
	acc := srcs[0]
	for _, b := range srcs[1:] {
		c, err := e.execute(spec.Op, []memarch.RowAddr{acc, b}, bits, dst)
		if err != nil {
			return workload.Cost{}, err
		}
		total.Add(c)
		acc = dst
	}
	return total, nil
}

// execute runs one operation through the scheduler and returns its cost.
func (e *Engine) execute(op sense.Op, srcs []memarch.RowAddr, bits int, dst memarch.RowAddr) (workload.Cost, error) {
	res, err := e.sched.Execute(op, srcs, bits, dst)
	if err != nil {
		return workload.Cost{}, err
	}
	return res.Cost, nil
}

// place returns the template operand rows of spec and its destination.
// An ungrouped spec's operands take distinct rows of its placement class:
// intra rows of subarray 0, inter-sub rows spread over subarrays 1.. of
// bank 0, inter-bank rows spread over every bank's subarrays 1.. . A
// grouped spec puts group i in its own subarray from row 0 on: subarray i
// of bank 0 (inter-sub), or bank i mod BanksPerChip, subarray
// i / BanksPerChip (inter-bank); the scheduler folds each group into that
// subarray's scratch (last) row. An intra result lands in subarray 0's
// last row and an inter result in row (0,0,0), so every writeback routes
// as the placement class implies.
func (e *Engine) place(spec workload.OpSpec) ([]memarch.RowAddr, memarch.RowAddr) {
	geo := e.geo
	rows := e.rows[:0]
	if len(spec.Groups) > 1 {
		for i, g := range spec.Groups {
			sub := memarch.RowAddr{Subarray: i}
			if spec.Placement == workload.PlaceInterBank {
				sub = memarch.RowAddr{Bank: i % geo.BanksPerChip, Subarray: i / geo.BanksPerChip}
			}
			for r := 0; r < g; r++ {
				sub.Row = r
				rows = append(rows, sub)
			}
		}
	} else {
		nsub, nb := geo.SubarraysPerBank-1, geo.BanksPerChip
		for i := 0; i < spec.Operands; i++ {
			var a memarch.RowAddr
			switch spec.Placement {
			case workload.PlaceIntra:
				a = memarch.RowAddr{Row: i % (geo.RowsPerSubarray - 2)}
			case workload.PlaceInterSub:
				a = memarch.RowAddr{Subarray: 1 + i%nsub, Row: i / nsub}
			default: // PlaceInterBank
				a = memarch.RowAddr{Bank: i % nb, Subarray: 1 + (i/nb)%nsub, Row: i / (nb * nsub)}
			}
			rows = append(rows, a)
		}
	}
	e.rows = rows
	var dst memarch.RowAddr
	if spec.Placement == workload.PlaceIntra {
		dst.Row = geo.RowsPerSubarray - 1
	}
	return rows, dst
}

var _ workload.Engine = (*Engine)(nil)
