package sim

import (
	"sort"
	"testing"
)

// FuzzEventQueue decodes a byte string into schedule, cancel and RunUntil
// operations on a Simulator and checks the events it runs against an
// oracle that keeps the pending events sorted by (at, seq). Each
// operation is two bytes, an opcode and an argument:
//
//	0  schedule one event at now + arg/4 (equal arguments tie)
//	1  cancel handle arg (mod the handles issued so far)
//	2  RunUntil(now + arg/8)
//	3  schedule arg%97+1 events at now + (i·7919 mod (arg%7+1))/4, many
//	   tied, all at now when arg%7 is 0
//	4  cancel every handle whose index is a multiple of arg%4+2
//
// Every third event an operation schedules schedules a zero-delay child
// when it runs, the way a fired signal wakes its waiters, so events due at
// the running instant queue behind earlier-scheduled events of the same
// time. Bursts followed by sweeps push the canceled share past half of a
// queue of 64 or more, so inputs cross the compaction threshold. A final
// Run drains the rest. Only the first 256 operations run, which bounds the
// events one input can schedule. The seed corpus is in
// testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 512)]
		type pending struct {
			at       Time
			id       int // index in model and handles; also the oracle's seq
			spawns   bool
			canceled bool
		}
		s := New()
		var (
			handles []EventHandle
			model   []*pending // every event, by id
			queued  []*pending // the events not yet run, in id order
			ran     []int
		)
		var callback func(id int) func()
		callback = func(id int) func() {
			return func() {
				ran = append(ran, id)
				if model[id].spawns {
					handles = append(handles, s.Schedule(0, callback(len(handles))))
				}
			}
		}
		schedule := func(at Time) {
			if at < s.Now() {
				at = s.Now()
			}
			p := &pending{at: at, id: len(model), spawns: len(model)%3 == 2}
			model = append(model, p)
			queued = append(queued, p)
			handles = append(handles, s.At(at, callback(p.id)))
		}
		cancel := func(k int) {
			handles[k].Cancel()
			model[k].canceled = true // moot for events that already ran
		}
		before := func(a, b *pending) bool {
			if a.at != b.at {
				return a.at < b.at
			}
			return a.id < b.id
		}
		// run executes up to limit on both sides and compares the order.
		run := func(limit Time) {
			// The oracle pops the least (at, seq) due event. A child it
			// spawns gets the parent's time and the next id, and goes to its
			// sorted place among the due events. Children are numbered here
			// before the simulator runs, in the order the oracle spawns
			// them; the simulator's callbacks number theirs in the order it
			// runs them, so the ids agree only if the orders do.
			var due, want []*pending
			rest := queued[:0]
			for _, p := range queued {
				switch {
				case p.canceled:
				case p.at <= limit:
					due = append(due, p)
				default:
					rest = append(rest, p)
				}
			}
			queued = rest
			sort.Slice(due, func(i, j int) bool { return before(due[i], due[j]) })
			for len(due) > 0 {
				p := due[0]
				due = due[1:]
				want = append(want, p)
				if p.spawns {
					c := &pending{at: p.at, id: len(model)}
					model = append(model, c)
					i := sort.Search(len(due), func(i int) bool { return before(c, due[i]) })
					due = append(due[:i], append([]*pending{c}, due[i:]...)...)
				}
			}
			ran = ran[:0]
			if err := s.RunUntil(limit); err != nil {
				t.Fatal(err)
			}
			if len(ran) != len(want) {
				t.Fatalf("RunUntil(%v) ran %d events, oracle %d", limit, len(ran), len(want))
			}
			for i, p := range want {
				if ran[i] != p.id {
					t.Fatalf("RunUntil(%v): event %d ran %d-th, oracle runs %d (at %v)", limit, ran[i], i, p.id, p.at)
				}
			}
			if s.Pending() != len(queued) {
				t.Fatalf("Pending() = %d, oracle %d", s.Pending(), len(queued))
			}
		}
		for ; len(data) >= 2; data = data[2:] {
			op, arg := data[0]%5, int(data[1])
			switch op {
			case 0:
				schedule(s.Now() + Time(arg)/4)
			case 1:
				if len(handles) > 0 {
					cancel(arg % len(handles))
				}
			case 2:
				run(s.Now() + Time(arg)/8)
			case 3:
				for i := 0; i < arg%97+1; i++ {
					schedule(s.Now() + Time(i*7919%(arg%7+1))/4)
				}
			case 4:
				for k := 0; k < len(handles); k += arg%4 + 2 {
					cancel(k)
				}
			}
		}
		run(maxTime)
	})
}

// maxTime is a finite limit past every time the fuzz target schedules.
const maxTime = Time(1 << 40)
