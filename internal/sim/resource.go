package sim

// Resource models a server pool with a fixed number of identical slots and a
// FIFO wait queue: CPU cores, memory channels, a log device, a latch
// (capacity 1). A script's Acquire step blocks the process while all slots
// are busy.
//
// Resource also accumulates busy time so harnesses can report utilization.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	waiters  waitRing

	busy      Duration // integral of inUse over time
	lastStamp Time
}

// NewResource returns a resource with the given number of slots.
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

func (r *Resource) stamp() {
	now := r.env.now
	r.busy += Duration(now-r.lastStamp) * Duration(r.inUse)
	r.lastStamp = now
}

// Release frees one slot and wakes the longest-waiting process, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.release()
}

func (r *Resource) release() {
	r.stamp()
	r.inUse--
	if w := r.waiters.pop(); w != nil {
		r.env.scheduleWake(w, r.env.now)
	}
}

// Use acquires a slot, holds it for d, then releases it. It is the common
// pattern for charging service time at a contended resource. The process
// parks at most once, however long it queues.
func (r *Resource) Use(p *Proc, d Duration) {
	sc := p.Script()
	sc.Use(r, d)
	sc.Run()
}

// BusyTime returns the slot-time integral consumed so far (slots × time).
func (r *Resource) BusyTime() Duration { r.stamp(); return r.busy }

// Utilization returns busy slot-time divided by capacity × elapsed, in [0,1].
func (r *Resource) Utilization() float64 {
	elapsed := Duration(r.env.now)
	if elapsed <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / (float64(elapsed) * float64(r.capacity))
}
