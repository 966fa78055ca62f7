package serve

import (
	"cllm/internal/sim"
)

// Replica is one serving instance exposed for external control loops
// (internal/autoscale): a continuous-batching scheduler plus its own
// request ledger on a caller-owned engine. RunFleet composes schedulers
// directly; Replica is the minimal exported surface an autoscaler needs —
// create on a shared clock, submit at arrival instants, observe load, and
// collect the final report.
type Replica struct {
	s      *scheduler
	ledger *ledger
}

// NewReplica builds one replica of the backend on the given engine through
// the same construction path Fleet.Run uses for its role groups. The
// config is normalized locally (the caller's copy is untouched); seed
// decorrelates this replica's noise stream from its siblings'.
func NewReplica(be Backend, cfg Config, eng *sim.Engine, seed int64) (*Replica, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s, err := buildReplica(be, &cfg, eng, seed)
	if err != nil {
		return nil, err
	}
	return &Replica{s: s, ledger: newLedger(&cfg)}, nil
}

// SetIndex labels this replica's observer events and gauge samples with
// its fleet index (autoscaler slot, fleet position). Zero by default; a
// no-op for unobserved runs.
func (r *Replica) SetIndex(i int) { r.s.replica = i }

// Submit hands an arrived request to this replica. Call it from inside an
// engine event at the request's arrival instant — the scheduler reads the
// engine clock for admission timestamps.
func (r *Replica) Submit(req Request) {
	r.s.submit(r.ledger.own(req))
}

// Outstanding is the replica's current load: queued plus running requests.
func (r *Replica) Outstanding() int { return r.s.outstanding() }

// Boot holds a freshly activated replica down for its cold start of sec
// seconds, in the state a crash recovery uses: requests submitted
// meanwhile queue and start once it is up. A boot loses no state and
// counts no crash or downtime. A replica still recovering from a crash is
// already rebuilding its TEE, so Boot leaves it to that recovery.
func (r *Replica) Boot(sec float64) {
	s := r.s
	if sec <= 0 || s.down {
		return
	}
	s.down = true
	s.eng.Schedule(sim.Time(sec), func(*sim.Engine) {
		s.down = false
		s.kick()
	})
}

// Down reports whether the replica is booting (Boot) or crashed and
// paying its TEE cold-start recovery (fault injection).
func (r *Replica) Down() bool { return r.s.down }

// Idle reports that the replica holds no request: nothing queued or
// running, and none waiting out a retry backoff to rejoin its queue.
func (r *Replica) Idle() bool { return r.s.outstanding() == 0 && r.s.backoff == 0 }

// Sheds counts requests admission control has declined so far. Control
// loops read it as an overload signal: a rising shed rate means offered
// load the fleet is turning away, i.e. demand beyond current capacity.
func (r *Replica) Sheds() int { return r.s.sheds }

// Submitted counts requests ever dispatched to this replica.
func (r *Replica) Submitted() int { return r.ledger.n }

// Err reports a costing failure that halted the replica's loop (a backend
// misconfiguration); the run's results are invalid if non-nil.
func (r *Replica) Err() error { return r.s.err }

// Report assembles the replica's outcome over every submitted request.
// Call it after the engine has drained (or hit its horizon). Under
// Config.QuantileMode == QuantileSketch the report carries quantile
// sketches instead of per-request samples, so fleet aggregation stays
// bounded-memory however many requests the replica served.
func (r *Replica) Report() *Report { return r.ledger.report(r.s) }
