// Package async implements the paper's model of asynchronous games
// (Section 2): players alternate moves with an *environment* (scheduler)
// that decides, at every step, which player moves next and which in-transit
// messages are delivered to it just before it moves.
//
// The runtime is deterministic given a seed and a deterministic Scheduler,
// which makes every experiment in this repository replayable. Schedulers
// observe only the *message pattern* — sender, receiver, sequence and batch
// numbers — never message contents, matching the paper's secure-channels
// assumption (Section 6.1 exploits exactly this interface).
//
// A scheduler sees the pattern through a View: a read-only handle on the
// runtime's indexed pending set, valid only during Scheduler.Next. The
// index answers the questions the fair schedulers ask — how many messages
// are deliverable, the k-th of them in ID order, the oldest one for a
// process — in O(log pending) or better, so one step of a run costs
// O(log pending) rather than O(pending) and a play is not quadratic in its
// message count. Filtering schedulers (delay, drop, bait) materialise the
// pending list in O(pending) and hand their base a filtered view.
//
// One message costs the runtime one slot in the pending set (a bare
// Message, in ID order), one bit in each of two bitmaps (pending, and
// deliverable) and an update to a Fenwick tree with one leaf per 512
// slots; the runtime allocates nothing per message. Nor does a play
// allocate its pending index or its parties' random streams: a Runtime
// takes both from a pooled store when it is built and returns the store
// when Run ends, so a play reuses the storage earlier plays grew and
// re-keys their streams in place. The runtime counts the processes not
// yet started and not yet halted, so checking for the end of a run is
// O(1) per step, not O(n).
//
// Each party draws its private coins (Env.Rand) from a ChaCha8 stream of
// its own, keyed by the full 64-bit play seed, the party index and a
// domain label (StreamKey). Every seed is thus a distinct play, the
// random scheduler's stream (keyed under another label) is independent of
// the parties', and a party behind a Remote draws what the same party
// draws in a Runtime.
//
// One in-process runtime executes Processes: Runtime, the
// scheduler-driven, single-goroutine simulator behind every experiment
// and adversarial analysis. The paper's bounds are stated against
// an explicit environment, so that environment stays an object the caller
// chooses (a Scheduler), never goroutine interleaving. Real asynchrony
// comes from real networks instead: Remote (remote.go) adapts one
// Process to an external transport, and package wire runs it on TCP.
//
// Relaxed schedulers (Section 5) are supported: a relaxed scheduler may
// drop message batches forever, subject to the all-or-none rule for
// messages sent in the same activation step. Dropping is how the paper
// models mediator-game deadlock, which in turn is what punishment wills
// (Theorems 4.4/4.5) respond to.
package async

import (
	"errors"
	"fmt"
	"math/rand/v2"
)

// PID identifies a process: players are 0..n-1; auxiliary parties (such as
// the mediator in a mediator game) take the next ids.
type PID int

// MsgID is a runtime-assigned identifier of an in-flight message. IDs are
// assigned in send order and never reused.
type MsgID int64

// Message is a point-to-point message. Payload contents are visible only
// to the recipient; schedulers see the remaining (pattern) fields.
type Message struct {
	ID      MsgID
	From    PID
	To      PID
	Seq     int // per (From,To) sequence number, starting at 0
	Batch   int // activation batch: messages sent in one activation share it
	Payload any
}

// MsgMeta is the scheduler-visible part of a message (the "message
// pattern" of Section 6.4's scheduler-counting argument).
type MsgMeta struct {
	ID    MsgID
	From  PID
	To    PID
	Seq   int
	Batch int
}

// Process is a participant in an asynchronous game. Implementations are
// message-driven state machines: the runtime calls Start exactly once, when
// the process is first scheduled (the paper's "signal that the game has
// started"), and Deliver once per delivered message. All sending and
// deciding happens through the Env passed to these callbacks.
type Process interface {
	Start(env *Env)
	Deliver(env *Env, msg Message)
}

// envBackend is the runtime surface behind an Env. The deterministic
// Runtime and the transport adapter Remote implement it.
type envBackend interface {
	send(from, to PID, payload any)
	decide(p PID, move any)
	setWill(p PID, move any)
	halt(p PID)
	procRand(p PID) *rand.Rand
	numPlayers() int
}

// Env is the capability handed to a process during one activation.
// It must not be retained across activations: the Runtime reuses one Env
// for every activation of every process.
type Env struct {
	b    envBackend
	self PID
}

// Self returns the process's own id.
func (e *Env) Self() PID { return e.self }

// Players returns the number of game players (processes minus auxiliaries).
func (e *Env) Players() int { return e.b.numPlayers() }

// Rand returns the process's private randomness: a ChaCha8 stream keyed
// by the play's 64-bit seed and the process's id, the same in a Runtime
// and behind a Remote. The stream is valid only while the run lasts: a
// Runtime re-keys its storage for a later play once Run returns, so a
// process must not keep it beyond its run.
func (e *Env) Rand() *rand.Rand { return e.b.procRand(e.self) }

// Send enqueues a message to the given process. Messages sent during one
// activation form a batch (relaxed schedulers drop batches atomically).
func (e *Env) Send(to PID, payload any) {
	e.b.send(e.self, to, payload)
}

// Decide records the process's move in the underlying game. Only the first
// call takes effect; later calls are ignored (a player moves at most once,
// as in the paper's definition of a game extension).
func (e *Env) Decide(move any) {
	e.b.decide(e.self, move)
}

// SetWill records the move this process wants made on its behalf if the
// talk deadlocks before it decides (the Aumann-Hart "will"; Section 1).
// The most recent call wins, so a will may be rewritten as the process's
// history grows.
func (e *Env) SetWill(move any) {
	e.b.setWill(e.self, move)
}

// Halt marks the process as finished: it will receive no further
// activations and its pending incoming messages may be discarded.
func (e *Env) Halt() {
	e.b.halt(e.self)
}

// Event is one environment move: schedule process Player, delivering the
// listed pending messages to it first (possibly none). DropBatches lists
// batch ids the scheduler abandons forever; it is legal only for relaxed
// runs.
//
// Deliver may alias storage the scheduler owns (the fair schedulers reuse
// a one-slot array), so it stays valid only until the scheduler's next
// Next call; a caller that keeps an event must copy Deliver.
type Event struct {
	Player      PID
	Deliver     []MsgID
	DropBatches []BatchKey
}

// BatchKey identifies a batch of messages sent by one process in one
// activation.
type BatchKey struct {
	From  PID
	Batch int
}

// View is the scheduler-observable state: public lifecycle facts plus the
// message pattern of the pending set. Contents of messages are not
// exposed.
//
// A View is read only: the slices alias the runtime's own state, and the
// pending set is queried through methods, not copied. The runtime passes
// its view to Scheduler.Next; a filtering scheduler may build a view over
// a subset of the pending messages with WithPending. Costs, for the
// runtime's view (a WithPending view answers every query by scanning its
// list, O(len)):
//
//   - Deliverable, Unstarted: O(1);
//   - KthDeliverable: O(log pending);
//   - OldestFor: amortised O(1);
//   - Pending: O(pending), a fresh slice.
type View struct {
	N       int
	Players int
	Started []bool
	Halted  []bool
	Decided []bool
	Steps   int

	pend *pendingSet // the runtime's index; nil for a WithPending view
	list []MsgMeta   // a WithPending view's pending set, in ID order
	life *lifecycle  // the runtime's lifecycle counts, shared by WithPending views
}

// lifecycle counts processes by lifecycle stage.
type lifecycle struct {
	unstarted int // neither started nor halted
	running   int // not halted
}

// Unstarted returns the number of processes that have neither started nor
// halted: those a scheduler may still start.
func (v *View) Unstarted() int { return v.life.unstarted }

// Deliverable returns the number of pending messages addressed to a
// process that has not halted.
func (v *View) Deliverable() int {
	if v.pend != nil {
		return v.pend.deliverable
	}
	n := 0
	for _, m := range v.list {
		if !v.Halted[m.To] {
			n++
		}
	}
	return n
}

// KthDeliverable returns the k-th (0-based) deliverable message in ID
// order. It requires 0 <= k < Deliverable().
func (v *View) KthDeliverable(k int) MsgMeta {
	if v.pend != nil {
		return meta(v.pend.slots[v.pend.kth(k)])
	}
	for _, m := range v.list {
		if !v.Halted[m.To] {
			if k == 0 {
				return m
			}
			k--
		}
	}
	panic("async: KthDeliverable index out of range")
}

// OldestFor returns the pending message to p with the smallest ID, or
// ok = false if none is pending.
func (v *View) OldestFor(p PID) (m MsgMeta, ok bool) {
	if v.pend != nil {
		pos := v.pend.oldest(p)
		if pos < 0 {
			return MsgMeta{}, false
		}
		return meta(v.pend.slots[pos]), true
	}
	for _, m := range v.list {
		if m.To == p {
			return m, true
		}
	}
	return MsgMeta{}, false
}

// Pending returns every pending message, in ID (send) order, including
// those addressed to halted processes. Callers must not modify the slice:
// on a WithPending view it is the list the view was built from.
func (v *View) Pending() []MsgMeta {
	if v.pend != nil {
		return v.pend.list()
	}
	return v.list
}

// WithPending returns a view with v's lifecycle facts whose pending set is
// list, which must be in ID order. Filtering schedulers use it to offer
// their base scheduler a subset of the pending messages.
func (v *View) WithPending(list []MsgMeta) *View {
	return &View{
		N: v.N, Players: v.Players, Started: v.Started, Halted: v.Halted,
		Decided: v.Decided, Steps: v.Steps, list: list, life: v.life,
	}
}

// Scheduler is the environment strategy. Next returns the next event; ok =
// false ends the run (legal for relaxed schedulers, or when no deliverable
// messages remain).
//
// The view is valid only for the duration of the call and is read only:
// its slices are the runtime's live state and its methods query the
// runtime's index. A scheduler that needs state across steps must copy
// what it keeps. The returned Event.Deliver may alias storage the
// scheduler owns and is valid only until the next call to Next.
type Scheduler interface {
	Next(v *View) (ev Event, ok bool)
}

// Config configures a Runtime.
type Config struct {
	// Procs are the processes; index = PID.
	Procs []Process
	// Players is the number of game players; processes with PID >= Players
	// are auxiliaries (e.g. the mediator). If zero, defaults to len(Procs).
	Players int
	// Scheduler is the environment strategy.
	Scheduler Scheduler
	// Seed derives all per-process RNG streams.
	Seed int64
	// MaxSteps caps the run (livelock guard). Defaults to 2_000_000.
	MaxSteps int
	// Relaxed permits the scheduler to drop batches and to stop with
	// messages still pending (the paper allows this only in mediator
	// games; enforcing that is the caller's responsibility).
	Relaxed bool
	// Trace, if non-nil, receives every event after it executes.
	Trace func(TraceEntry)
}

// TraceEntry describes one executed step, for debugging and analysis.
type TraceEntry struct {
	Step      int
	Player    PID
	Delivered []MsgMeta
	Sent      []MsgMeta
	Started   bool
}

// Stats aggregates counters from a run.
type Stats struct {
	Steps             int
	MessagesSent      int
	MessagesDelivered int
	MessagesDropped   int
	PerSender         map[PID]int
}

// Result is the outcome of a run.
type Result struct {
	// Moves maps PID to the move decided during the run (absent if none).
	Moves map[PID]any
	// Wills maps PID to the latest will registered (absent if none).
	Wills map[PID]any
	// Halted[p] reports whether p halted.
	Halted []bool
	// Deadlocked is true if the run ended with some player neither decided
	// nor halted (livelock/deadlock in the cheap-talk phase).
	Deadlocked bool
	Stats      Stats
}

// Errors returned by Run.
var (
	ErrMaxSteps       = errors.New("async: step limit exceeded (livelock?)")
	ErrBadEvent       = errors.New("async: scheduler produced an invalid event")
	ErrUnfairStop     = errors.New("async: non-relaxed scheduler stopped with messages pending")
	ErrDropNotAllowed = errors.New("async: drop in non-relaxed run")
)

// Runtime executes an asynchronous game under a scheduler, once: Run
// returns the runtime's storage to the pools it came from, and a second
// Run is an error.
type Runtime struct {
	cfg       Config
	procs     []Process
	rngs      []stream // on the pooled store, beside the pending index
	pend      pendingSet
	nextID    MsgID
	seq       []int // per (From,To) sequence counter, at From*len(procs)+To
	batch     []int // per-process activation counter
	started   []bool
	halted    []bool
	decided   []bool
	life      lifecycle
	moves     map[PID]any
	wills     map[PID]any
	steps     int
	stats     Stats
	perSender []int
	sentNow   []MsgMeta         // this step's sends; kept only with Config.Trace
	dropped   map[BatchKey]bool // relaxed runs only
	touched   map[BatchKey]bool // relaxed runs only: batches with a delivered message
	view      View              // the scheduler's handle (see Scheduler)
	env       Env               // the activation's Env (see Env: not retained)
	ran       bool              // Run was called: the storage is released
}

// New creates a Runtime. It returns an error for malformed configs.
func New(cfg Config) (*Runtime, error) {
	if len(cfg.Procs) == 0 {
		return nil, errors.New("async: no processes")
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("async: no scheduler")
	}
	if cfg.Players == 0 {
		cfg.Players = len(cfg.Procs)
	}
	if cfg.Players < 0 || cfg.Players > len(cfg.Procs) {
		return nil, fmt.Errorf("async: invalid Players=%d with %d processes", cfg.Players, len(cfg.Procs))
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000
	}
	n := len(cfg.Procs)
	rt := &Runtime{
		cfg:       cfg,
		procs:     cfg.Procs,
		seq:       make([]int, n*n),
		batch:     make([]int, n),
		started:   make([]bool, n),
		halted:    make([]bool, n),
		decided:   make([]bool, n),
		moves:     make(map[PID]any),
		wills:     make(map[PID]any),
		perSender: make([]int, n),
		life:      lifecycle{unstarted: n, running: n},
	}
	if cfg.Relaxed {
		rt.dropped = make(map[BatchKey]bool)
		rt.touched = make(map[BatchKey]bool)
	}
	st := storePool.Get().(*pendStore)
	rt.pend = newPendingSet(rt.halted, st)
	rt.rngs = st.keyParties(cfg.Seed, n)
	rt.view = View{
		N: n, Players: cfg.Players,
		Started: rt.started, Halted: rt.halted, Decided: rt.decided,
		pend: &rt.pend, life: &rt.life,
	}
	return rt, nil
}

var _ envBackend = (*Runtime)(nil)

// release hands the store behind the pending index and the party streams
// back to the pool.
func (rt *Runtime) release() {
	rt.rngs = nil
	storePool.Put(rt.pend.release())
}

func (rt *Runtime) decide(p PID, move any) {
	if !rt.decided[p] {
		rt.decided[p] = true
		rt.moves[p] = move
	}
}

func (rt *Runtime) setWill(p PID, move any)   { rt.wills[p] = move }
func (rt *Runtime) procRand(p PID) *rand.Rand { return &rt.rngs[p].r }
func (rt *Runtime) numPlayers() int           { return rt.cfg.Players }

// halt marks p halted, taking its pending messages out of the
// deliverable index once.
func (rt *Runtime) halt(p PID) {
	if !rt.halted[p] {
		rt.pend.halt(p)
		rt.halted[p] = true
		rt.life.running--
		if !rt.started[p] {
			rt.life.unstarted--
		}
	}
}

func (rt *Runtime) send(from, to PID, payload any) {
	if to < 0 || int(to) >= len(rt.procs) {
		// Sends to nonexistent processes are silently dropped; a malicious
		// process must not be able to crash the runtime.
		return
	}
	key := int(from)*len(rt.procs) + int(to)
	m := Message{
		ID:      rt.nextID,
		From:    from,
		To:      to,
		Seq:     rt.seq[key],
		Batch:   rt.batch[from],
		Payload: payload,
	}
	rt.nextID++
	rt.seq[key]++
	rt.pend.add(m)
	rt.stats.MessagesSent++
	rt.perSender[from]++
	if rt.cfg.Trace != nil {
		rt.sentNow = append(rt.sentNow, meta(m))
	}
}

func meta(m Message) MsgMeta {
	return MsgMeta{ID: m.ID, From: m.From, To: m.To, Seq: m.Seq, Batch: m.Batch}
}

// Run executes the game to completion and returns the Result.
//
// The run ends when (a) the scheduler stops, (b) all processes have halted,
// or (c) the system is quiescent (no pending undropped messages and all
// processes started). Ending with a player neither decided nor halted
// marks the result Deadlocked; layering packages apply wills or default
// moves to such players.
//
// Run may be called once; it returns the runtime's storage to the pools
// on every return path, and a second call returns an error.
func (rt *Runtime) Run() (*Result, error) {
	if rt.ran {
		return nil, errors.New("async: Run called twice on one Runtime")
	}
	rt.ran = true
	defer rt.release()
	for {
		if rt.steps >= rt.cfg.MaxSteps {
			return nil, fmt.Errorf("%w after %d steps", ErrMaxSteps, rt.steps)
		}
		if rt.life.running == 0 || rt.quiescent() {
			break
		}
		rt.view.Steps = rt.steps
		ev, ok := rt.cfg.Scheduler.Next(&rt.view)
		if !ok {
			if !rt.cfg.Relaxed && rt.pend.deliverable > 0 {
				return nil, ErrUnfairStop
			}
			break
		}
		if err := rt.exec(ev); err != nil {
			return nil, err
		}
	}
	return rt.result(), nil
}

// quiescent reports that no further progress is possible: every process
// has started (so no start signals remain) and no pending message has a
// live recipient.
func (rt *Runtime) quiescent() bool {
	return rt.life.unstarted == 0 && rt.pend.deliverable == 0
}

func (rt *Runtime) exec(ev Event) error {
	p := ev.Player
	if p < 0 || int(p) >= len(rt.procs) {
		return fmt.Errorf("%w: player %d out of range", ErrBadEvent, p)
	}
	if len(ev.DropBatches) > 0 {
		if !rt.cfg.Relaxed {
			return ErrDropNotAllowed
		}
		for _, bk := range ev.DropBatches {
			// The paper's all-or-none rule: a relaxed scheduler delivers
			// either all messages sent at one step or none of them.
			if rt.touched[bk] {
				return fmt.Errorf("%w: partial drop of batch %+v", ErrBadEvent, bk)
			}
			rt.dropped[bk] = true
		}
		// Remove all pending messages in dropped batches (all-or-none is
		// enforced by dropping whole batch keys).
		rt.stats.MessagesDropped += rt.pend.removeIf(func(m *Message) bool {
			return rt.dropped[BatchKey{From: m.From, Batch: m.Batch}]
		})
	}

	rt.steps++
	tracing := rt.cfg.Trace != nil
	rt.env = Env{b: rt, self: p}
	env := &rt.env

	var delivered []MsgMeta
	startedNow := false

	if rt.halted[p] {
		// Scheduling a halted process is a no-op; its messages are gone.
		for _, id := range ev.Deliver {
			if pos := rt.pend.find(id); pos >= 0 {
				rt.pend.remove(pos)
				rt.stats.MessagesDropped++
			}
		}
	} else {
		// New activation: bump the batch counter so sends group correctly.
		rt.batch[p]++
		if !rt.started[p] {
			rt.started[p] = true
			rt.life.unstarted--
			startedNow = true
			rt.procs[p].Start(env)
		}
		for _, id := range ev.Deliver {
			if rt.halted[p] {
				break
			}
			pos := rt.pend.find(id)
			if pos < 0 {
				return fmt.Errorf("%w: message %d not pending", ErrBadEvent, id)
			}
			if to := rt.pend.slots[pos].To; to != p {
				return fmt.Errorf("%w: message %d addressed to %d, delivered to %d", ErrBadEvent, id, to, p)
			}
			m := rt.pend.remove(pos)
			rt.stats.MessagesDelivered++
			if rt.touched != nil {
				rt.touched[BatchKey{From: m.From, Batch: m.Batch}] = true
			}
			if tracing {
				delivered = append(delivered, meta(m))
			}
			rt.procs[p].Deliver(env, m)
		}
	}

	if tracing {
		rt.cfg.Trace(TraceEntry{
			Step:      rt.steps,
			Player:    p,
			Delivered: delivered,
			Sent:      rt.sentNow,
			Started:   startedNow,
		})
		rt.sentNow = nil // the entry owns the slice now
	}
	return nil
}

func (rt *Runtime) result() *Result {
	res := &Result{
		Moves:  make(map[PID]any, len(rt.moves)),
		Wills:  make(map[PID]any, len(rt.wills)),
		Halted: append([]bool(nil), rt.halted...),
	}
	for k, v := range rt.moves {
		res.Moves[k] = v
	}
	for k, v := range rt.wills {
		res.Wills[k] = v
	}
	for p := 0; p < rt.cfg.Players; p++ {
		if !rt.decided[p] && !rt.halted[p] {
			res.Deadlocked = true
		}
	}
	rt.stats.Steps = rt.steps
	res.Stats = rt.stats
	res.Stats.PerSender = make(map[PID]int)
	for p, sent := range rt.perSender {
		if sent > 0 {
			res.Stats.PerSender[PID(p)] = sent
		}
	}
	return res
}
