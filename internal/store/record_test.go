package store_test

import (
	"bytes"
	"testing"

	"asyncmediator/api"
	"asyncmediator/internal/store"
	"asyncmediator/internal/telemetry"
)

// keyedResponse is the shape of the farm's keyed-response record (the
// service's idemRecord, under "idem-").
type keyedResponse struct {
	Status      int    `json:"status"`
	ContentType string `json:"content_type,omitempty"`
	Body        []byte `json:"body,omitempty"`
}

// recordKinds makes a fresh value of each durable record kind: sessions,
// experiment jobs, retained traces and keyed responses.
var recordKinds = []func() any{
	func() any { return new(api.SessionView) },
	func() any { return new(api.ExperimentJobView) },
	func() any { return new(telemetry.Record) },
	func() any { return new(keyedResponse) },
}

// FuzzRecordDecode feeds arbitrary bytes to the record value decoder as
// each record kind. It must never panic and must refuse an empty value or
// an unknown version byte. A value it accepts re-encodes (0x01, then
// json.Marshal), and that encoding decodes and re-encodes byte-identically.
// JSON spells one value many ways, so an arbitrary input need not equal
// its re-encoding; a record the encoder wrote does, which the seeds check.
func FuzzRecordDecode(f *testing.F) {
	trace := &api.TraceView{TraceID: "t-1", Spans: []api.TraceSpan{{Name: "ba", Origin: "local", StartUS: 2, EndUS: 9, Count: 3}}}
	seeds := []any{ // one of each kind, in recordKinds' order
		api.SessionView{ID: "s-000001", State: api.StateDone, Seed: 7, Profile: []int{1, 0, 1}},
		api.ExperimentJobView{ID: "x-000001", Experiment: "e7", State: api.StateFailed, Trials: 2, Error: "interrupted by daemon restart"},
		telemetry.Record{Seq: 1, Summary: api.TraceSummary{Session: "s-000001", TraceID: "t-1", PhaseMS: map[string]float64{"ba": 0.25}}, Trace: trace},
		keyedResponse{Status: 201, ContentType: "application/json", Body: []byte(`{"id":"s-000001"}`)},
	}
	for i, v := range seeds {
		b, err := store.EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		back := recordKinds[i]()
		if err := store.DecodeValue(b, back); err != nil {
			f.Fatalf("%T: %v", v, err)
		}
		if again, _ := store.EncodeValue(back); !bytes.Equal(again, b) {
			f.Fatalf("%T: %q re-encodes as %q", v, b, again)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("*{\"id\":\"s-000002\"}")) // version 42
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range recordKinds {
			v := kind()
			err := store.DecodeValue(data, v)
			if len(data) == 0 || data[0] != 1 {
				if err == nil {
					t.Fatalf("%T: accepted %q", v, data)
				}
				continue
			}
			if err != nil {
				continue
			}
			enc, err := store.EncodeValue(v)
			if err != nil {
				t.Fatalf("%T: %q decodes but does not encode: %v", v, data, err)
			}
			w := kind()
			if err := store.DecodeValue(enc, w); err != nil {
				t.Fatalf("%T: re-encoding %q does not decode: %v", v, enc, err)
			}
			if again, _ := store.EncodeValue(w); !bytes.Equal(again, enc) {
				t.Fatalf("%T: %q re-encodes as %q", v, enc, again)
			}
		}
	})
}
