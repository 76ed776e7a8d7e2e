package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// Alert rule names. Each rule is edge-triggered: one Alert when the
// condition starts holding, one with Cleared=true when it stops — never
// a repeat per interval while it holds.
const (
	// RulePeerSilent: a previously healthy peer fell silent past
	// SuspectAfter.
	RulePeerSilent = "peer_silent"
	// RulePeerExpired: the silence outlasted ExpireAfter.
	RulePeerExpired = "peer_expired"
	// RuleQueueSaturated: a peer's gossiped queue_depth sat at or above
	// the watermark for QueueIntervals consecutive rounds.
	RuleQueueSaturated = "queue_saturated"
	// RuleRedialStorm: a peer's redial counter advanced by at least
	// RedialStormDelta within the last RedialWindow rounds — its links
	// are flapping.
	RuleRedialStorm = "redial_storm"
	// RuleFleetFloor: healthy daemons fell below the configured floor
	// (the operator's count of live failure domains). Armed only after
	// the fleet first reaches the floor, so a rolling start is not an
	// alert.
	RuleFleetFloor = "fleet_floor"
)

// Alert is one rule transition, shaped for the event bus.
type Alert struct {
	Rule    string  `json:"rule"`
	Peer    string  `json:"peer,omitempty"` // subject's API URL ("" = fleet-wide)
	Index   int     `json:"index"`          // subject's fleet index (-1 = fleet-wide)
	Message string  `json:"message"`
	Value   float64 `json:"value,omitempty"`
	Cleared bool    `json:"cleared,omitempty"`
}

// engineConfig parameterizes the rule engine.
type engineConfig struct {
	n, self int
	floor   int
	// queueWatermark > 0 arms the queue_saturated rule at that depth.
	queueWatermark int
	// queueIntervals is how many consecutive saturated rounds fire it.
	queueIntervals int
	// redialWindow (rounds) and redialStormDelta arm the redial_storm
	// rule: delta redials >= redialStormDelta within redialWindow rounds.
	redialWindow     int
	redialStormDelta int64
	emit             func(Alert)
}

// engine evaluates the alert rules against successive fleet views. All
// rules are pure functions of the view plus small per-peer histories;
// the engine holds the edge-trigger state (which alerts are active).
type engine struct {
	cfg engineConfig

	mu     sync.Mutex
	firing map[string]Alert // rule+subject -> the alert that fired

	// per-peer histories, indexed by fleet index
	satRounds  []int     // consecutive rounds at/above the queue watermark
	redials    [][]int64 // ring of recent redial counter samples
	redialPos  []int
	redialSeen []bool
	floorSeen  bool // floor rule arms once healthy >= floor
}

func newEngine(cfg engineConfig) *engine {
	if cfg.queueIntervals <= 0 {
		cfg.queueIntervals = 3
	}
	if cfg.redialWindow <= 0 {
		cfg.redialWindow = 10
	}
	if cfg.redialStormDelta <= 0 {
		cfg.redialStormDelta = 8
	}
	e := &engine{
		cfg:        cfg,
		firing:     make(map[string]Alert),
		satRounds:  make([]int, cfg.n),
		redials:    make([][]int64, cfg.n),
		redialPos:  make([]int, cfg.n),
		redialSeen: make([]bool, cfg.n),
	}
	for i := range e.redials {
		e.redials[i] = make([]int64, cfg.redialWindow)
	}
	return e
}

// active returns the currently firing alerts, sorted by (rule, subject)
// key so successive snapshots diff cleanly (map order is random).
func (e *engine) active() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.firing))
	for k := range e.firing {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Alert, len(keys))
	for i, k := range keys {
		out[i] = e.firing[k]
	}
	return out
}

// evaluate runs every rule against one view snapshot, emitting the edge
// transitions through cfg.emit.
func (e *engine) evaluate(v View) {
	e.mu.Lock()
	var fired []Alert

	set := func(key string, a Alert) {
		if _, on := e.firing[key]; !on {
			e.firing[key] = a
			fired = append(fired, a)
		}
	}
	unset := func(key string, mk func(prev Alert) Alert) {
		if prev, on := e.firing[key]; on {
			delete(e.firing, key)
			c := mk(prev)
			c.Cleared = true
			fired = append(fired, c)
		}
	}

	for i, p := range v.Peers {
		if p.Self {
			continue
		}
		subject := p.Addr
		if subject == "" {
			subject = fmt.Sprintf("peer-%d", i)
		}
		silentKey := fmt.Sprintf("%s/%d", RulePeerSilent, i)
		expiredKey := fmt.Sprintf("%s/%d", RulePeerExpired, i)

		switch p.State {
		case StateSuspect:
			set(silentKey, Alert{
				Rule: RulePeerSilent, Peer: subject, Index: i,
				Message: fmt.Sprintf("peer %d (%s) silent for %dms (suspect after %s)", i, subject, p.SilentForMS, v.SuspectAfter),
				Value:   float64(p.SilentForMS),
			})
		case StateExpired:
			set(silentKey, Alert{
				Rule: RulePeerSilent, Peer: subject, Index: i,
				Message: fmt.Sprintf("peer %d (%s) silent for %dms (suspect after %s)", i, subject, p.SilentForMS, v.SuspectAfter),
				Value:   float64(p.SilentForMS),
			})
			set(expiredKey, Alert{
				Rule: RulePeerExpired, Peer: subject, Index: i,
				Message: fmt.Sprintf("peer %d (%s) expired after %dms of silence", i, subject, p.SilentForMS),
				Value:   float64(p.SilentForMS),
			})
		case StateHealthy:
			unset(expiredKey, func(prev Alert) Alert { return prev })
			unset(silentKey, func(prev Alert) Alert {
				prev.Message = fmt.Sprintf("peer %d (%s) heard again", i, subject)
				return prev
			})
		}

		// queue_saturated: consecutive rounds at/above the watermark.
		if e.cfg.queueWatermark > 0 && p.State == StateHealthy {
			qKey := fmt.Sprintf("%s/%d", RuleQueueSaturated, i)
			if p.QueueDepth >= e.cfg.queueWatermark {
				e.satRounds[i]++
				if e.satRounds[i] >= e.cfg.queueIntervals {
					set(qKey, Alert{
						Rule: RuleQueueSaturated, Peer: subject, Index: i,
						Message: fmt.Sprintf("peer %d (%s) queue depth %d >= watermark %d for %d intervals", i, subject, p.QueueDepth, e.cfg.queueWatermark, e.satRounds[i]),
						Value:   float64(p.QueueDepth),
					})
				}
			} else {
				e.satRounds[i] = 0
				unset(qKey, func(prev Alert) Alert {
					prev.Message = fmt.Sprintf("peer %d (%s) queue depth %d back under watermark %d", i, subject, p.QueueDepth, e.cfg.queueWatermark)
					prev.Value = float64(p.QueueDepth)
					return prev
				})
			}
		}

		// redial_storm: counter delta across the ring window.
		if p.Gen > 0 {
			ring := e.redials[i]
			pos := e.redialPos[i]
			oldest := ring[pos]
			ring[pos] = p.Redials
			e.redialPos[i] = (pos + 1) % len(ring)
			rKey := fmt.Sprintf("%s/%d", RuleRedialStorm, i)
			if !e.redialSeen[i] {
				// Prime the whole ring on first sight so a peer joining
				// with a large historical counter is not a storm.
				for j := range ring {
					ring[j] = p.Redials
				}
				e.redialSeen[i] = true
			} else if delta := p.Redials - oldest; delta >= e.cfg.redialStormDelta {
				set(rKey, Alert{
					Rule: RuleRedialStorm, Peer: subject, Index: i,
					Message: fmt.Sprintf("peer %d (%s): %d redials in the last %d intervals", i, subject, delta, len(ring)),
					Value:   float64(delta),
				})
			} else {
				unset(rKey, func(prev Alert) Alert {
					prev.Message = fmt.Sprintf("peer %d (%s) redial storm subsided", i, subject)
					return prev
				})
			}
		}
	}

	// fleet_floor: fleet-wide, armed only after the floor is first met.
	if e.cfg.floor > 0 {
		if v.Healthy >= e.cfg.floor {
			e.floorSeen = true
		}
		fKey := RuleFleetFloor
		if e.floorSeen && v.Healthy < e.cfg.floor {
			set(fKey, Alert{
				Rule: RuleFleetFloor, Index: -1,
				Message: fmt.Sprintf("fleet has %d healthy daemons, below the configured floor %d", v.Healthy, e.cfg.floor),
				Value:   float64(v.Healthy),
			})
		} else if v.Healthy >= e.cfg.floor {
			unset(fKey, func(prev Alert) Alert {
				prev.Message = fmt.Sprintf("fleet back at %d healthy daemons (floor %d)", v.Healthy, e.cfg.floor)
				prev.Value = float64(v.Healthy)
				return prev
			})
		}
	}

	emit := e.cfg.emit
	e.mu.Unlock()

	if emit != nil {
		for _, a := range fired {
			emit(a)
		}
	}
}
