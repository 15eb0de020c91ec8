package sim

// Resource is a counting semaphore with FIFO admission, used to model
// exclusive or limited hardware units (an SM issue port, a DMA engine).
type Resource struct {
	e     *Engine
	cap   int
	inUse int
	queue []*Proc
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{e: e, cap: capacity}
}

// Acquire blocks p until a unit is available, honouring FIFO order. p
// must belong to the same engine as the resource (affinity guard).
func (r *Resource) Acquire(p *Proc) {
	r.e.mustOwn(p, "Resource.Acquire")
	if r.inUse < r.cap && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.park()
	// Ownership was transferred by Release before the wakeup.
}

// TryAcquire acquires a unit without blocking; reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If a process is queued, ownership passes
// directly to the head of the queue.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if len(r.queue) > 0 {
		w := r.queue[0]
		r.queue[0] = nil // do not retain the departing proc
		r.queue = r.queue[1:]
		// inUse stays: the unit transfers to w.
		w.wakeAt(r.e.now)
		return
	}
	r.inUse--
}

// InUse reports the number of held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of blocked acquirers.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Use acquires the resource, holds it for d, then releases it.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}
