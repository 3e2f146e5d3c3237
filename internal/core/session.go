package core

import (
	"fmt"

	"bionicdb/internal/btree"
	"bionicdb/internal/obs"
	"bionicdb/internal/platform"
	"bionicdb/internal/sim"
	"bionicdb/internal/stats"
	"bionicdb/internal/storage"
)

// Session is one simulated machine's run lifecycle, phase by phase. Open
// builds the engine on a fresh environment, populates it and warms it;
// Checkpoint takes a sharp checkpoint; Start spawns the closed-loop
// terminals; RunTo advances simulated time; Stop tells the terminals to
// issue nothing more; Crash captures what survives a cold stop; Close reaps
// every process still parked. Run is a Session with a measurement window
// and a drain; the recovery and failover experiments are a Session that
// checkpoints and crashes, then Boot.
type Session struct {
	Env *sim.Env
	Eng Engine

	wl   Workload
	root *sim.Rand
	stop bool
}

// Open builds the engine on a fresh environment, populates it from the
// root stream's first split and warms it. No event has run when it returns.
func Open(wl Workload, seed uint64, mk func(env *sim.Env) Engine) *Session {
	env := sim.NewEnv()
	s := &Session{Env: env, Eng: mk(env), wl: wl, root: sim.NewRand(seed)}
	wl.Populate(s.Eng.Load, s.root.Split())
	s.Eng.Warm()
	return s
}

// Split returns the root's next stream. Callers draw theirs (analytics, a
// fault plan) before Start, which gives each terminal the next one in turn.
func (s *Session) Split() *sim.Rand { return s.root.Split() }

// Checkpoint takes a sharp checkpoint before any terminal exists. Its
// simulated duration is not known up front, and engine daemons tick forever
// (an unbounded Run would never return), so the host steps the environment
// in chunks until the checkpointer reports done: chunks double while no
// event lands inside one (RunUntil never advances the clock past the last
// executed event) and reset once progress resumes. Only idle daemons share
// the clock with the checkpointer, so overshooting its completion is free.
// A row the image format cannot hold is Checkpoint's error.
func (s *Session) Checkpoint() (CheckpointMeta, error) {
	var meta CheckpointMeta
	var cpErr error
	done := false
	s.Env.Spawn("checkpointer", func(p *sim.Proc) {
		meta, cpErr = Checkpoint(p, s.Eng.Tables(), s.Eng.DiskManager(), s.Eng.LogSet())
		done = true
	})
	step := sim.Time(sim.Millisecond)
	for !done {
		before := s.Env.Executed()
		if err := s.Env.RunUntil(s.Env.Now() + step); err != nil {
			return meta, err
		}
		if s.Env.Executed() == before {
			step *= 2
		} else {
			step = sim.Time(sim.Millisecond)
		}
	}
	return meta, cpErr
}

// Window is a measurement interval and the Result its terminals record
// into: every transaction that starts at or after From and finishes by To
// counts toward Res.TxnCounts and Res.TxnRetries, and a committed one adds
// its latency and phase anatomy.
type Window struct {
	From, To sim.Time
	Res      *Result
}

func (w *Window) record(term *Terminal, name string, start, end sim.Time, committed bool) {
	if w == nil || start < w.From || end > w.To {
		return
	}
	w.Res.TxnCounts[name]++
	if term.Retries > 0 {
		w.Res.TxnRetries[name] += int64(term.Retries)
	}
	if committed {
		w.Res.Latency.Record(end.Sub(start))
		for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
			w.Res.Anatomy.Record(ph, term.Ph[ph])
		}
	}
}

// Start spawns n closed-loop terminals, terminal i on core i mod cores with
// the root's next stream. They submit until Stop, recording into w when it
// is non-nil and tracing into rec when it is non-nil.
func (s *Session) Start(n int, w *Window, rec *obs.Recorder) {
	pl := s.Eng.Platform()
	termRec := rec.Shard(0)
	for i := 0; i < n; i++ {
		i := i
		tr := s.root.Split()
		core := pl.Cores[i%len(pl.Cores)]
		s.Env.Spawn(fmt.Sprintf("terminal%d", i), func(p *sim.Proc) {
			term := &Terminal{ID: i, P: p, Core: core, R: tr, Rec: termRec}
			for !s.stop {
				name, logic := s.wl.NextTxn(term.R)
				start := p.Now()
				committed := s.Eng.Submit(term, logic)
				w.record(term, name, start, p.Now(), committed)
			}
		})
	}
}

// RunTo advances simulated time to t.
func (s *Session) RunTo(t sim.Time) error { return s.Env.RunUntil(t) }

// Stop makes every terminal (and analytical client) finish its current
// transaction and issue no other.
func (s *Session) Stop() { s.stop = true }

// Close reaps every process still parked. Every Session is closed on every
// exit path: a process panic makes RunUntil return early with workers still
// blocked on queues and locks, a crashed machine stops with all of them
// blocked, and even a clean run may leave daemons parked on primitives
// nobody will signal again.
func (s *Session) Close() { s.Env.Close() }

// Image is what survives a crash: the machine's configuration, the schema,
// the checkpoint anchor and page store, and each log shard's durable bytes.
// Staged and buffered log bytes die with the machine.
type Image struct {
	Cfg  *platform.Config
	Defs []TableDef
	Meta CheckpointMeta
	DM   *storage.DiskManager
	Logs [][]byte
}

// Crash stops the machine cold where it stands (no drain, no Close) and
// returns its Image against the checkpoint meta.
func (s *Session) Crash(meta CheckpointMeta) Image {
	return Image{
		Cfg:  s.Eng.Platform().Cfg,
		Defs: s.wl.Tables(),
		Meta: meta,
		DM:   s.Eng.DiskManager(),
		Logs: s.Eng.LogSet().Datas(),
	}
}

// DefaultDetect is the modeled failure-detector timeout: how long a replica
// waits on missed heartbeats before declaring the primary dead and starting
// recovery. A few link round trips of a 2012-era in-rack network.
const DefaultDetect = 500 * sim.Microsecond

// Boot starts a fresh machine of img's configuration, unreplicated (a
// promoted replica serves alone), waits detect, and recovers img's
// checkpoint plus logs through RecoverMeasured, one process per shard when
// parallel. logs is img.Logs for a recovery boot, or a surviving replica
// copy of them for a failover. The checkpoint pages are rebound to the new
// machine's disk: checkpoints are static page images, assumed replicated
// out of band when they are taken. It returns the recovered trees, the
// recovery's statistics and the joules the boot drew, detection included.
func Boot(img Image, logs [][]byte, parallel bool, detect sim.Duration) (map[uint16]*btree.Tree, RecoveryStats, float64, error) {
	cfg := *img.Cfg
	cfg.Replicas = 0
	cfg.ReplMode = stats.ReplNone
	env := sim.NewEnv()
	defer env.Close()
	pl := platform.New(env, &cfg)
	dm := img.DM.Rebind(pl.Disk)
	var sets []map[uint16]*btree.Tree
	var st RecoveryStats
	var err error
	env.Spawn("boot", func(p *sim.Proc) {
		if detect > 0 {
			p.Wait(detect)
		}
		sets, st, err = RecoverMeasured(p, pl, img.Defs, img.Meta, dm, logs, parallel)
	})
	if runErr := env.Run(); runErr != nil {
		return nil, st, 0, runErr
	}
	if err != nil {
		return nil, st, 0, err
	}
	return sets[0], st, pl.Energy(platform.Snapshot{}, pl.Snapshot()).Total(), nil
}
