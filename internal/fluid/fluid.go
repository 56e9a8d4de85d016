// Package fluid models data movement as fluid flows over a capacitated
// link network with max-min fair bandwidth sharing.
//
// Each Flow transfers a byte count over a route (an ordered set of Links).
// At any instant every active flow receives a rate computed by progressive
// filling (max-min fairness): link capacity is divided evenly among the
// flows crossing it, flows bottlenecked elsewhere release their unused
// share, and the process repeats until all flows are frozen. Whenever the
// flow set changes, remaining bytes are settled at the old rates and all
// rates and completion times are recomputed.
//
// This is the standard fluid approximation used by network and interconnect
// simulators: it captures bandwidth contention (the phenomenon the paper's
// evaluation highlights for host-staged bidirectional transfers) without
// per-packet simulation.
//
// The re-rating path is the simulator's hottest loop, so it is written to
// be allocation-free in steady state: active-flow sets are slices with
// order-preserving (network) and swap (link) removal, progressive filling
// works on scratch fields embedded in Link and Flow rather than per-call
// maps, and a flow's completion event is only canceled and rescheduled
// when its rate actually changed.
//
// It also touches only what can change. The network keeps the list of
// links that carry at least one flow (a link joins when its first flow
// starts and leaves when its last flow finishes or fails), so settling and
// filling never scan idle links. A filling round freezes the flows found
// in the bottleneck links' own active lists, walking only their routes,
// and drops links whose flows have all frozen. The result is bit-identical
// to freezing flows in start order over every link; maxMinRates says why.
// Re-rating only the connected component a change touched would not be:
// the bottleneck tolerance lets a link in one component freeze at another
// component's share within the same round, so per-component fixpoints can
// differ from the global one in the last bits.
package fluid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// ErrLinkDown marks flow failures caused by a failed link. Callers classify
// transfer errors with errors.Is(err, ErrLinkDown); the wrapped message
// carries the link name.
var ErrLinkDown = errors.New("fluid: link down")

// Link is a unidirectional capacitated resource. Two directions of a
// physical cable are two Links. A shared resource such as a host memory
// channel is also a Link that multiple routes traverse.
type Link struct {
	name     string
	base     float64 // nominal capacity, bytes per second
	scale    float64 // health factor applied to base (1 = healthy)
	capacity float64 // effective capacity = base × scale
	down     bool    // failed: active flows were aborted, new flows fail fast
	net      *Network
	active   []*Flow // flows currently crossing the link

	// accounting
	bytesCarried float64
	busy         float64 // integrated seconds with >=1 active flow

	// progressive-filling scratch, valid only inside maxMinRates.
	residual float64 // capacity not yet claimed by frozen flows
	unfrozen int     // active flows not yet frozen
	fair     float64 // residual/unfrozen at the start of the current round

	idx       int // position in net.links; union-find key for Components
	activeIdx int // position in net.activeLinks while len(active) > 0
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's effective capacity (nominal × health scale)
// in bytes per second. A failed link keeps reporting its effective capacity
// — planners must stay able to parameterize paths that cross it — but flows
// started over it fail immediately.
func (l *Link) Capacity() float64 { return l.capacity }

// NominalCapacity returns the capacity the link was created with,
// independent of any degradation applied since.
func (l *Link) NominalCapacity() float64 { return l.base }

// CapacityScale returns the current health factor (1 = healthy).
func (l *Link) CapacityScale() float64 { return l.scale }

// Down reports whether the link has failed (see FailLink).
func (l *Link) Down() bool { return l.down }

// SetCapacityScale degrades (or restores) the link to factor × nominal
// capacity. In-flight flows are settled at the old rates and re-rated at
// the new capacity from the current instant on. The factor must be positive
// and finite; use FailLink for a hard failure.
func (l *Link) SetCapacityScale(factor float64) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("fluid: link %q capacity scale must be positive and finite, got %v", l.name, factor))
	}
	if factor == l.scale {
		return
	}
	n := l.net
	n.settle()
	l.scale = factor
	l.capacity = l.base * factor
	n.reallocate()
}

// FailLink takes the link down: every active flow crossing it fails (its
// Done signal fails with an ErrLinkDown-wrapped error) and subsequent
// StartFlow calls over the link fail immediately until Restore. Failing a
// failed link is a no-op.
func (l *Link) FailLink() {
	if l.down {
		return
	}
	n := l.net
	n.settle()
	l.down = true
	// Abort active flows in insertion order (deterministic). Copy first:
	// failFlow mutates l.active via removeFlow.
	victims := append([]*Flow(nil), l.active...)
	err := fmt.Errorf("%w: %s", ErrLinkDown, l.name)
	for _, f := range victims {
		n.failFlow(f, err)
	}
	n.reallocate()
}

// Restore brings a failed link back up at its current capacity scale.
// Flows failed by FailLink stay failed; new flows may use the link again.
func (l *Link) Restore() {
	if !l.down {
		return
	}
	l.net.settle()
	l.down = false
	l.net.reallocate()
}

// ActiveFlows returns the number of flows currently crossing the link.
func (l *Link) ActiveFlows() int { return len(l.active) }

// BytesCarried returns the total bytes the link has carried so far.
func (l *Link) BytesCarried() float64 {
	l.net.settle()
	return l.bytesCarried
}

// BusyTime returns the total virtual time the link spent with at least one
// active flow.
func (l *Link) BusyTime() float64 {
	l.net.settle()
	return l.busy
}

// Flow is an in-progress transfer over a route.
type Flow struct {
	route      []*Link
	routeIdx   []int // position of this flow in each route link's active slice
	idxBuf     [4]int
	remaining  float64
	rate       float64
	done       *sim.Signal
	completion sim.EventHandle
	finishFn   func() // reused by every (re)scheduled completion event
	finished   bool
	started    sim.Time
	seq        uint64 // monotonic start order; deterministic tie-breaker
	flowIdx    int    // position in net.flows
	net        *Network

	// progressive-filling scratch, valid only inside a reallocate call.
	frozenIn uint64 // the filling pass that froze the flow (net.fills)
	newRate  float64
}

// Done returns the signal that fires when the flow completes.
func (f *Flow) Done() *sim.Signal { return f.done }

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes left to transfer as of the last settlement.
func (f *Flow) Remaining() float64 {
	f.net.settle()
	return f.remaining
}

// Started returns the virtual time the flow began.
func (f *Flow) Started() sim.Time { return f.started }

// Seq returns the flow's monotonic start sequence number. Flows started
// earlier have smaller sequence numbers; flows started at the same virtual
// instant are still totally ordered by it.
func (f *Flow) Seq() uint64 { return f.seq }

// Network owns links and active flows and performs rate allocation.
type Network struct {
	sim       *sim.Simulator
	links     []*Link
	flows     []*Flow // active flows in start (seq) order
	flowSeq   uint64
	settledAt sim.Time
	label     string // diagnostic label (shard/node name in fleet builds)

	// activeLinks holds exactly the links with at least one active flow,
	// in no particular order: a link joins when its first flow starts and
	// leaves when its last flow finishes or fails. settle and maxMinRates
	// scan it instead of every link.
	activeLinks []*Link

	// reusable scratch for maxMinRates: the links that held unfrozen flows
	// at the end of the last round, and the count of filling passes run.
	scan  []*Link
	fills uint64
}

// NewNetwork creates an empty flow network on the given simulator.
func NewNetwork(s *sim.Simulator) *Network {
	return &Network{sim: s, settledAt: s.Now()}
}

// Sim returns the simulator the network runs on.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// AddLink creates a link with the given capacity in bytes/second.
// Capacity must be positive.
func (n *Network) AddLink(name string, capacity float64) *Link {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("fluid: link %q capacity must be positive and finite, got %v", name, capacity))
	}
	l := &Link{name: name, base: capacity, scale: 1, capacity: capacity, net: n, idx: len(n.links)}
	n.links = append(n.links, l)
	return l
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// ActiveFlowCount returns the number of in-flight flows.
func (n *Network) ActiveFlowCount() int { return len(n.flows) }

// StartFlow begins transferring bytes over route. The returned flow's Done
// signal fires when the last byte arrives. A route must contain at least
// one link and must not repeat a link; zero-byte flows complete at the
// current instant.
func (n *Network) StartFlow(bytes float64, route ...*Link) *Flow {
	if len(route) == 0 {
		panic("fluid: StartFlow requires a non-empty route")
	}
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("fluid: StartFlow bytes must be non-negative, got %v", bytes))
	}
	for i, l := range route {
		if l.net != n {
			// Boundary handling for sharded fleets: a route may never span
			// two networks (rate allocation is a per-network fixpoint).
			// Cross-shard transfers must be split at the boundary and the
			// halves stitched with sim.(*Simulator).Post.
			panic(fmt.Sprintf("fluid: route link %q belongs to a different network (network %q, link's %q); split cross-shard routes at the boundary",
				l.name, n.label, l.net.label))
		}
		for _, prev := range route[:i] {
			if prev == l {
				panic(fmt.Sprintf("fluid: route repeats link %q", l.name))
			}
		}
	}
	f := &Flow{
		route:     route,
		remaining: bytes,
		done:      n.sim.NewSignal(),
		started:   n.sim.Now(),
		net:       n,
	}
	if bytes == 0 {
		f.finished = true
		n.sim.Schedule(0, f.done.Fire)
		return f
	}
	for _, l := range route {
		if l.down {
			// Fail fast: the flow never joins the network, so it does not
			// perturb the rates of healthy flows.
			f.finished = true
			err := fmt.Errorf("%w: %s", ErrLinkDown, l.name)
			n.sim.Schedule(0, func() { f.done.Fail(err) })
			return f
		}
	}
	n.settle()
	f.finishFn = func() { n.finish(f) }
	f.seq = n.flowSeq
	n.flowSeq++
	f.flowIdx = len(n.flows)
	n.flows = append(n.flows, f)
	if len(route) <= len(f.idxBuf) {
		f.routeIdx = f.idxBuf[:0]
	} else {
		f.routeIdx = make([]int, 0, len(route))
	}
	for _, l := range route {
		if len(l.active) == 0 {
			l.activeIdx = len(n.activeLinks)
			n.activeLinks = append(n.activeLinks, l)
		}
		f.routeIdx = append(f.routeIdx, len(l.active))
		l.active = append(l.active, f)
	}
	n.reallocate()
	return f
}

// settle advances per-flow remaining bytes and per-link accounting from the
// last settlement point to now, using the rates in force over that span.
func (n *Network) settle() {
	now := n.sim.Now()
	dt := now - n.settledAt
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	for _, l := range n.activeLinks {
		var sum float64
		for _, f := range l.active {
			sum += f.rate
		}
		l.bytesCarried += sum * dt
		l.busy += dt
	}
	n.settledAt = now
}

// reallocate computes max-min fair rates for all active flows and
// reschedules the completion events of flows whose rate changed. Flows
// whose rate is unchanged keep their pending event: it already points at
// the correct absolute completion time, so churning it would only waste
// heap work.
func (n *Network) reallocate() {
	if len(n.flows) == 0 {
		return
	}
	n.maxMinRates()
	for _, f := range n.flows {
		if f.newRate == f.rate {
			continue
		}
		f.completion.Cancel()
		f.rate = f.newRate
		if f.rate <= 0 {
			// No capacity at all (cannot happen with positive link
			// capacities, but guard against division by zero).
			continue
		}
		f.completion = n.sim.Schedule(f.remaining/f.rate, f.finishFn)
	}
}

// maxMinRates runs progressive filling over the current flow set, leaving
// each flow's allocation in its newRate scratch field. It allocates nothing
// and touches no flow outside the rounds: link residual capacity, unfrozen
// counts and fair shares live on the links, a flow is frozen when stamped
// with the current pass number, and the scan list reuses a scratch slice
// on the network.
//
// Each round computes every scanned link's fair share residual/unfrozen,
// takes the least as the bottleneck share, and freezes the unfrozen flows
// found in the active lists of the links whose fair share is within a
// 1e-9 relative tolerance of it. Only those flows' routes are walked, and
// a link whose last unfrozen flow froze leaves the scan list. The result
// does not depend on the order flows or links are visited: the share and
// every link's fair share are fixed before any flow of the round freezes,
// every flow frozen in a round gets that one share, and every residual
// update in the round subtracts it and clamps at zero (a monotone map, so
// k updates give the same value in any order). It is therefore
// bit-identical to freezing in start (seq) order over links in creation
// order, the reference the churn tests pin it to.
func (n *Network) maxMinRates() {
	n.fills++
	fill := n.fills
	scan := append(n.scan[:0], n.activeLinks...)
	for _, l := range scan {
		l.residual = l.capacity
		l.unfrozen = len(l.active)
	}
	remaining := len(n.flows)
	for remaining > 0 {
		// Find the bottleneck share, the least fair share, dropping links
		// whose flows all froze in the last round (by swapping in the last
		// link: the scan order does not matter).
		share := math.Inf(1)
		for i := 0; i < len(scan); {
			l := scan[i]
			if l.unfrozen == 0 {
				last := len(scan) - 1
				scan[i] = scan[last]
				scan = scan[:last]
				continue
			}
			l.fair = l.residual / float64(l.unfrozen)
			if l.fair < share {
				share = l.fair
			}
			i++
		}
		if math.IsInf(share, 1) {
			break // no constraining link left; shouldn't happen
		}
		// Freeze the unfrozen flows crossing a link that hits the
		// bottleneck share (within a small relative tolerance to absorb
		// float error). The link holding the least fair share always
		// qualifies, so every round freezes at least one flow.
		tol := share * 1e-9
		for _, l := range scan {
			if l.fair > share+tol {
				continue
			}
			for _, f := range l.active {
				if f.frozenIn == fill {
					continue
				}
				f.frozenIn = fill
				f.newRate = share
				remaining--
				for _, rl := range f.route {
					rl.residual -= share
					if rl.residual < 0 {
						rl.residual = 0
					}
					rl.unfrozen--
				}
			}
		}
	}
	n.scan = scan
	if remaining > 0 {
		// Any flow not frozen (degenerate corner) gets no allocation.
		for _, f := range n.flows {
			if f.frozenIn != fill {
				f.newRate = 0
			}
		}
	}
}

// removeFlow detaches a finished flow from the network and its links.
// Removal from n.flows preserves order (it stays sorted by seq, which
// maxMinRates relies on); removal from a link's active slice swaps with the
// last element and patches the moved flow's routeIdx entry.
func (n *Network) removeFlow(f *Flow) {
	copy(n.flows[f.flowIdx:], n.flows[f.flowIdx+1:])
	n.flows[len(n.flows)-1] = nil
	n.flows = n.flows[:len(n.flows)-1]
	for i := f.flowIdx; i < len(n.flows); i++ {
		n.flows[i].flowIdx = i
	}
	for ri, l := range f.route {
		idx := f.routeIdx[ri]
		last := len(l.active) - 1
		moved := l.active[last]
		l.active[idx] = moved
		l.active[last] = nil
		l.active = l.active[:last]
		if last == 0 {
			n.deactivate(l)
			continue
		}
		if moved != f {
			for mi, ml := range moved.route {
				if ml == l {
					moved.routeIdx[mi] = idx
					break
				}
			}
		}
	}
}

// deactivate removes a link whose last flow left from n.activeLinks,
// swapping the last entry into its place.
func (n *Network) deactivate(l *Link) {
	last := len(n.activeLinks) - 1
	moved := n.activeLinks[last]
	n.activeLinks[l.activeIdx] = moved
	moved.activeIdx = l.activeIdx
	n.activeLinks[last] = nil
	n.activeLinks = n.activeLinks[:last]
}

// failFlow aborts an in-flight flow: it is removed from the network and its
// links, its pending completion event is canceled, and its done signal
// fails with err. The caller is responsible for settling beforehand and
// re-rating survivors afterwards (FailLink batches both around a group of
// victims).
func (n *Network) failFlow(f *Flow, err error) {
	if f.finished {
		return
	}
	f.finished = true
	f.completion.Cancel()
	f.rate = 0
	n.removeFlow(f)
	f.done.Fail(err)
}

// finish completes a flow: verifies its bytes drained, removes it from the
// network, fires its done signal, and re-rates the survivors.
func (n *Network) finish(f *Flow) {
	if f.finished {
		return
	}
	n.settle()
	// Tolerate tiny residues from float arithmetic.
	if f.remaining > 1e-6*math.Max(1, f.rate) {
		// Rates changed since this event was scheduled; the event should
		// have been canceled. Defensive: cancel whatever handle is still
		// armed (overwriting it without canceling would leak a live event
		// that finishes the flow early) and reschedule at the current rate.
		f.completion.Cancel()
		if f.rate > 0 {
			f.completion = n.sim.Schedule(f.remaining/f.rate, f.finishFn)
		}
		return
	}
	f.finished = true
	f.remaining = 0
	f.rate = 0
	f.completion.Cancel() // no-op for the event that fired; drops a stale one
	n.removeFlow(f)
	f.done.Fire()
	n.reallocate()
}
