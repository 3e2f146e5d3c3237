package sim

// Serial forms of the deleted sharded kernel's API, kept only because the
// benchmark module still calls them. Nothing else may (CI greps for it).

// Deprecated: there is one kernel; EnableParallel does nothing.
func (e *Env) EnableParallel(shards int, lookahead Duration) {}

// Deprecated: SpawnOn is Spawn.
func (e *Env) SpawnOn(shard int, name string, fn func(p *Proc)) *Proc { return e.Spawn(name, fn) }

// Deprecated: there is one kernel; NumShards returns 1.
func (e *Env) NumShards() int { return 1 }

// Deprecated: OnShard returns r.
func (r *Resource) OnShard(shard int) *Resource { return r }

// Deprecated: OnShard returns q.
func (q *Queue[T]) OnShard(shard int) *Queue[T] { return q }

// Deprecated: CrossAt is Env.At.
func (p *Proc) CrossAt(shard int, t Time, fn func()) { p.env.At(t, fn) }
