package service

import "asyncmediator/internal/store"

// The farm's durable records share one store and one record format,
// store.Records' (a version byte, then the JSON the /v1 API serves). Each
// kind owns a key prefix:
//
//	s-%06d      terminal sessions (View, trace stripped)
//	x-%06d      experiment jobs (ExpView), queued and terminal
//	tr-%08d     retained traces (internal/telemetry's ring)
//	idem-<key>  keyed create responses (idemRecord)
//
// Sequence keys are zero-padded, so key order is creation order.
const (
	sessionKeyPrefix    = "s-"
	experimentKeyPrefix = "x-"
	idemKeyPrefix       = "idem-"
)

func sessionRecords(st *store.Store) store.Records[View] {
	return store.SeqRecords[View](st, sessionKeyPrefix, 6)
}

func jobRecords(st *store.Store) store.Records[ExpView] {
	return store.SeqRecords[ExpView](st, experimentKeyPrefix, 6)
}

func idemRecords(st *store.Store) store.Records[idemRecord] {
	return store.NamedRecords[idemRecord](st, idemKeyPrefix)
}

// idemRecord is the persisted form of one cached keyed response.
type idemRecord struct {
	Status      int    `json:"status"`
	ContentType string `json:"content_type,omitempty"`
	Body        []byte `json:"body,omitempty"`
}

// persisted counts a failed store write as a persist error (a sick disk
// surfaces in /v1/stats) and reports whether the write succeeded.
func (s *Service) persisted(err error) bool {
	if err != nil {
		s.persistErrs.Inc()
	}
	return err == nil
}

// live is a hot session or experiment job: its view, its state, and a
// channel closed when it turns terminal.
type live[V any] interface {
	Snapshot() V
	stateNow() State
	Done() <-chan struct{}
}

// lookup reads a session or job from either tier: the hot object first,
// then the store.
func lookup[V any, L live[V]](hot func(string) (L, bool), recs store.Records[V], id string) (V, bool) {
	if obj, ok := hot(id); ok {
		return obj.Snapshot(), true
	}
	return recs.Get(id)
}
