package main

import (
	"fmt"
	"strconv"

	multipath "repro"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/fluid"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// Layer replays for the traced run: each function repeats one layer's
// share of a captured transfer operation through that layer's public
// entry points.

// runMPI runs op through an MPI world: the OSU body, or for a single Put a
// blocking send and receive, twice (warm-up and measured, as runPut).
func runMPI(s *multipath.System, op *xferOp) error {
	w, err := mpi.NewWorld(s.Ctx, op.ranks(), mpi.DefaultOptions())
	if err != nil {
		return err
	}
	if op.Kind != "put" {
		_, err := runOSU(w, op)
		return err
	}
	return w.Run(func(p *sim.Proc, r *mpi.Rank) error {
		for i := 0; i < 2; i++ {
			var err error
			switch r.ID() {
			case op.Src:
				err = r.Send(p, op.Dst, op.Bytes, tagData)
			case op.Dst:
				err = r.Recv(p, op.Src, op.Bytes, tagData)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// timedPut is one Put at its simulated issue time.
type timedPut struct {
	at float64
	put
}

// capture is one traced MPI run of an operation.
type capture struct {
	puts []timedPut
	// sys is the machine after the run, for link accounting.
	sys *multipath.System
}

// capturePuts runs op through MPI with the transport's tracer on and
// reads every Put back from the transfer spans, in issue order. Tracing
// records simulated time only, so the run is the untraced one.
func capturePuts(op *xferOp) (*capture, error) {
	cfg := opConfig(op)
	cfg.Trace = true
	sys, err := buildSystem(op, cfg)
	if err != nil {
		return nil, err
	}
	if err := runMPI(sys, op); err != nil {
		return nil, err
	}
	c := &capture{sys: sys}
	for _, sp := range sys.Ctx.Tracer().Spans() {
		if sp.Cat != "xfer" || sp.Name != "put" {
			continue
		}
		tp := timedPut{at: sp.Start}
		if _, err := fmt.Sscanf(sp.Track, "xfer:%d->%d", &tp.src, &tp.dst); err != nil {
			return nil, fmt.Errorf("put span on track %q: %w", sp.Track, err)
		}
		for _, a := range sp.Attrs {
			if a.Key == "bytes" {
				if tp.bytes, err = strconv.ParseFloat(a.Val, 64); err != nil {
					return nil, err
				}
			}
		}
		c.puts = append(c.puts, tp)
	}
	return c, nil
}

// replayPuts issues the captured Puts on endpoints at their simulated
// times and drains the machine.
func replayPuts(s *multipath.System, puts []timedPut) error {
	var reqs []*ucx.Request
	var firstErr error
	for _, tp := range puts {
		ep, err := s.Endpoint(tp.src, tp.dst)
		if err != nil {
			return err
		}
		bytes := tp.bytes
		s.Sim.At(tp.at, func() {
			req, err := ep.Put(bytes)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			reqs = append(reqs, req)
		})
	}
	if err := s.Drain(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	for _, req := range reqs {
		if err := req.Done.Err(); err != nil {
			return err
		}
	}
	return nil
}

// plannedPut is a Put's plan and the simulated time ucx hands it to the
// pipeline: the issue time plus the rendezvous overhead, plus the IPC
// handle open on a pair's first Put.
type plannedPut struct {
	at   float64
	plan *core.Plan
}

func planPuts(s *multipath.System, op *xferOp, puts []timedPut) ([]plannedPut, error) {
	cfg := s.Ctx.Config()
	sel, err := ucx.PathSetByName(op.PathSet)
	if err != nil {
		return nil, err
	}
	opened := map[[2]int]bool{}
	out := make([]plannedPut, 0, len(puts))
	for _, tp := range puts {
		pl, err := s.Ctx.PlanForSet(tp.src, tp.dst, tp.bytes, sel, nil)
		if err != nil {
			return nil, err
		}
		at := tp.at + cfg.RndvOverhead
		if pair := [2]int{tp.src, tp.dst}; !opened[pair] {
			opened[pair] = true
			at += cfg.IpcOpenCost
		}
		out = append(out, plannedPut{at: at, plan: pl})
	}
	return out, nil
}

// executePlans runs every plan on a pipeline engine at its time.
func executePlans(s *multipath.System, planned []plannedPut) error {
	eng := pipeline.New(s.Runtime, s.Ctx.Config().EngineConfig)
	var done []*sim.Signal
	var firstErr error
	for _, pp := range planned {
		pl := pp.plan
		s.Sim.At(pp.at, func() {
			res, err := eng.Execute(pl)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			done = append(done, res.Done)
		})
	}
	if err := drain(s, &done); err != nil {
		return err
	}
	return firstErr
}

// drain runs the machine empty and checks every completion signal.
func drain(s *multipath.System, done *[]*sim.Signal) error {
	if err := s.Drain(); err != nil {
		return err
	}
	for _, d := range *done {
		if !d.Fired() {
			return fmt.Errorf("transfer did not complete")
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
}

// lane is an in-order queue of copies, delays and waits: a CUDA stream,
// or its stand-in built from raw simulator events. E is the lane's event
// type.
type lane[E any] interface {
	copy(r hw.Route, bytes float64) *sim.Signal
	delay(d float64)
	record() E
	wait(ev E)
}

// issuePlans issues every plan's copies at its time, the way
// pipeline.Engine does: paths launched one launch latency apart, a direct
// path as one copy, a staged path as a chunk pipeline through a ring of
// staging slots with the staging synchronization ε before each second
// leg. newLane makes a lane on a device.
func issuePlans[E any](s *multipath.System, planned []plannedPut, newLane func(dev int) lane[E]) error {
	cfg := s.Ctx.Config().EngineConfig
	slots := cfg.StagingSlots
	if slots <= 0 {
		slots = 2
	}
	var done []*sim.Signal
	for _, pp := range planned {
		offset := pp.at
		for i := range pp.plan.Paths {
			path := &pp.plan.Paths[i]
			if path.Bytes <= 0 {
				continue
			}
			legs, err := legs(s.Node, path.Path)
			if err != nil {
				return err
			}
			s.Sim.At(offset, func() { done = append(done, issuePath(path, legs, slots, newLane)) })
			if cfg.SequentialInitiation {
				offset += path.Param.Legs[0].Alpha
			}
		}
	}
	return drain(s, &done)
}

// issuePath issues one path's copies and returns its final completion.
func issuePath[E any](pp *core.PathPlan, legs []hw.Route, slots int, newLane func(dev int) lane[E]) *sim.Signal {
	l1 := newLane(pp.Path.Src)
	if len(legs) == 1 {
		return l1.copy(legs[0], pp.Bytes)
	}
	second := pp.Path.Dst
	if pp.Path.Kind == hw.GPUStaged {
		second = pp.Path.Via
	}
	l2 := newLane(second)
	sizes := pipeline.SplitChunks(pp.Bytes, pp.Chunks)
	drained := make([]E, len(sizes))
	var last *sim.Signal
	for c, sz := range sizes {
		if c >= slots {
			l1.wait(drained[c-slots])
		}
		l1.copy(legs[0], sz)
		l2.wait(l1.record())
		if pp.Param.Eps > 0 {
			l2.delay(pp.Param.Eps)
		}
		last = l2.copy(legs[1], sz)
		drained[c] = l2.record()
	}
	return last
}

// legs returns a path's routes: one for a direct path, two for a staged
// one.
func legs(n *hw.Node, p hw.Path) ([]hw.Route, error) {
	switch p.Kind {
	case hw.Direct:
		r, ok := n.GPUToGPU(p.Src, p.Dst)
		if !ok {
			return nil, fmt.Errorf("no NVLink %d->%d", p.Src, p.Dst)
		}
		return []hw.Route{r}, nil
	case hw.GPUStaged:
		r1, ok1 := n.GPUToGPU(p.Src, p.Via)
		r2, ok2 := n.GPUToGPU(p.Via, p.Dst)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("no NVLink route %d->%d->%d", p.Src, p.Via, p.Dst)
		}
		return []hw.Route{r1, r2}, nil
	default:
		return []hw.Route{n.GPUToHost(p.Src, p.Via), n.HostToGPU(p.Via, p.Dst)}, nil
	}
}

// cudaLane is a CUDA stream.
type cudaLane struct{ st *cuda.Stream }

func cudaLanes(s *multipath.System) func(dev int) lane[*cuda.Event] {
	return func(dev int) lane[*cuda.Event] { return cudaLane{s.Runtime.Device(dev).NewStream("replay")} }
}

func (l cudaLane) copy(r hw.Route, bytes float64) *sim.Signal { return l.st.CopyRouteAsync(r, bytes) }
func (l cudaLane) delay(d float64)                            { l.st.Delay(d) }
func (l cudaLane) record() *cuda.Event                        { return l.st.RecordEvent() }
func (l cudaLane) wait(ev *cuda.Event)                        { l.st.WaitEvent(ev) }

// fluidLane sequences the same operations with simulator events and
// starts each copy as a raw flow after its route's latency, as a CUDA
// stream does.
type fluidLane struct {
	s    *sim.Simulator
	net  *fluid.Network
	tail *sim.Signal
}

func fluidLanes(s *multipath.System) func(dev int) lane[*sim.Signal] {
	return func(int) lane[*sim.Signal] {
		tail := s.Sim.NewSignal()
		tail.Fire()
		return &fluidLane{s: s.Sim, net: s.Node.Net, tail: tail}
	}
}

// then appends an operation that starts when the previous one is done.
func (l *fluidLane) then(run func(done *sim.Signal)) *sim.Signal {
	done := l.s.NewSignal()
	prev := l.tail
	l.tail = done
	prev.OnFire(func() { run(done) })
	return done
}

func (l *fluidLane) copy(r hw.Route, bytes float64) *sim.Signal {
	return l.then(func(done *sim.Signal) {
		l.s.Schedule(r.Latency, func() { l.net.StartFlow(bytes, r.Links...).Done().OnFire(done.Fire) })
	})
}

func (l *fluidLane) delay(d float64) {
	l.then(func(done *sim.Signal) { l.s.Schedule(d, done.Fire) })
}

func (l *fluidLane) record() *sim.Signal { return l.tail }

func (l *fluidLane) wait(ev *sim.Signal) {
	l.then(func(done *sim.Signal) { ev.OnFire(done.Fire) })
}
