// Package cuda simulates the subset of the CUDA runtime that intra-node
// GPU communication stacks rely on: per-device memory allocation, streams
// with in-order execution, events for cross-stream synchronization, and
// asynchronous copies between GPU and host memories. Copies move bytes over
// the hw topology's fluid links, so concurrent copies contend for link
// bandwidth exactly as concurrent DMA engines do.
//
// Semantics mirrored from CUDA:
//   - Operations enqueued on one stream execute strictly in order.
//   - Operations on different streams run concurrently unless ordered by
//     events (Stream.WaitEvent).
//   - An event "fires" when all work enqueued on its stream before
//     EventRecord has completed.
//
// The package also provides inter-process (IPC) memory handles; the ucx
// package layers its handle cache on top of them.
package cuda

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultDeviceMemory is the per-GPU memory capacity used when the
// topology does not specify one (32 GiB, a V100/A100-class figure).
const DefaultDeviceMemory = 32 * hw.GiB

// Runtime is a simulated CUDA runtime bound to one node topology.
type Runtime struct {
	node    *hw.Node
	sim     *sim.Simulator
	devices []*Device
	hosts   []*HostAllocator
	nextIpc uint64
	ipc     map[uint64]*DeviceBuffer
	// tr, when set, records graph launch/replay instants. Attach before
	// launching work; nil costs one pointer check per graph launch.
	tr *obs.Tracer
}

// NewRuntime creates a runtime over the given realized topology.
func NewRuntime(node *hw.Node) *Runtime {
	rt := &Runtime{
		node: node,
		sim:  node.Net.Sim(),
		ipc:  make(map[uint64]*DeviceBuffer),
	}
	for i := 0; i < node.Spec.GPUs; i++ {
		rt.devices = append(rt.devices, &Device{rt: rt, id: i, free: DefaultDeviceMemory})
	}
	for m := 0; m < node.Spec.NUMAs; m++ {
		rt.hosts = append(rt.hosts, &HostAllocator{rt: rt, numa: m})
	}
	return rt
}

// AttachTracer wires span tracing into the runtime: every graph launch
// records an instant on the graph track with its node count and launch
// overhead. Attaching nil detaches.
func (rt *Runtime) AttachTracer(tr *obs.Tracer) { rt.tr = tr }

// Tracer returns the attached tracer, or nil.
func (rt *Runtime) Tracer() *obs.Tracer { return rt.tr }

// Sim returns the simulator the runtime is bound to.
func (rt *Runtime) Sim() *sim.Simulator { return rt.sim }

// Node returns the underlying topology.
func (rt *Runtime) Node() *hw.Node { return rt.node }

// Device returns the device with the given index.
func (rt *Runtime) Device(i int) *Device {
	if i < 0 || i >= len(rt.devices) {
		panic(fmt.Sprintf("cuda: device index %d out of range [0,%d)", i, len(rt.devices)))
	}
	return rt.devices[i]
}

// DeviceCount returns the number of GPUs.
func (rt *Runtime) DeviceCount() int { return len(rt.devices) }

// Host returns the host allocator for a NUMA domain.
func (rt *Runtime) Host(numa int) *HostAllocator {
	if numa < 0 || numa >= len(rt.hosts) {
		panic(fmt.Sprintf("cuda: NUMA index %d out of range [0,%d)", numa, len(rt.hosts)))
	}
	return rt.hosts[numa]
}

// Device is one simulated GPU.
type Device struct {
	rt      *Runtime
	id      int
	free    float64
	engines *engineSem
}

// ID returns the device index.
func (d *Device) ID() int { return d.id }

// FreeMemory returns the remaining allocatable bytes.
func (d *Device) FreeMemory() float64 { return d.free }

// DeviceBuffer is an allocation in GPU memory.
type DeviceBuffer struct {
	dev   *Device
	size  float64
	freed bool
}

// Device returns the owning device.
func (b *DeviceBuffer) Device() *Device { return b.dev }

// Size returns the buffer size in bytes.
func (b *DeviceBuffer) Size() float64 { return b.size }

// ErrOutOfMemory is returned when a device allocation exceeds capacity.
var ErrOutOfMemory = errors.New("cuda: out of device memory")

// validSize reports whether size is a finite, non-negative byte count. A
// NaN would otherwise pass every comparison and poison the accounting.
func validSize(size float64) bool {
	return size >= 0 && !math.IsInf(size, 1)
}

// Malloc allocates size bytes on the device.
func (d *Device) Malloc(size float64) (*DeviceBuffer, error) {
	if !validSize(size) {
		return nil, fmt.Errorf("cuda: invalid allocation size %v", size)
	}
	if size > d.free {
		return nil, fmt.Errorf("%w: device %d has %.0f free, need %.0f", ErrOutOfMemory, d.id, d.free, size)
	}
	d.free -= size
	return &DeviceBuffer{dev: d, size: size}, nil
}

// Free releases the buffer. Double-free is an error.
func (b *DeviceBuffer) Free() error {
	if b.freed {
		return fmt.Errorf("cuda: double free on device %d buffer", b.dev.id)
	}
	b.freed = true
	b.dev.free += b.size
	return nil
}

// HostAllocator tracks pinned host allocations in one NUMA domain.
type HostAllocator struct {
	rt        *Runtime
	numa      int
	allocated float64
}

// NUMA returns the allocator's NUMA domain.
func (h *HostAllocator) NUMA() int { return h.numa }

// Allocated returns the pinned bytes currently allocated.
func (h *HostAllocator) Allocated() float64 { return h.allocated }

// HostBuffer is a pinned host-memory allocation.
type HostBuffer struct {
	host  *HostAllocator
	size  float64
	freed bool
}

// MallocHost allocates pinned host memory.
func (h *HostAllocator) MallocHost(size float64) (*HostBuffer, error) {
	if !validSize(size) {
		return nil, fmt.Errorf("cuda: invalid host allocation size %v", size)
	}
	h.allocated += size
	return &HostBuffer{host: h, size: size}, nil
}

// Free releases the pinned buffer.
func (b *HostBuffer) Free() error {
	if b.freed {
		return errors.New("cuda: double free on host buffer")
	}
	b.freed = true
	b.host.allocated -= b.size
	return nil
}

// NUMA returns the buffer's NUMA domain.
func (b *HostBuffer) NUMA() int { return b.host.numa }

// Size returns the buffer size in bytes.
func (b *HostBuffer) Size() float64 { return b.size }

// IpcHandle identifies a device buffer exported for another process.
type IpcHandle struct{ id uint64 }

// IpcGetMemHandle exports a device buffer.
func (rt *Runtime) IpcGetMemHandle(b *DeviceBuffer) IpcHandle {
	rt.nextIpc++
	h := IpcHandle{id: rt.nextIpc}
	rt.ipc[h.id] = b
	return h
}

// IpcOpenMemHandle resolves a handle to the exported buffer. In real CUDA
// this maps the remote allocation into the local address space; here it
// returns the buffer so copies can be issued against it.
func (rt *Runtime) IpcOpenMemHandle(h IpcHandle) (*DeviceBuffer, error) {
	b, ok := rt.ipc[h.id]
	if !ok {
		return nil, fmt.Errorf("cuda: unknown IPC handle %d", h.id)
	}
	return b, nil
}
