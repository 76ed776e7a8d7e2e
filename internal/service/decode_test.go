package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"asyncmediator/api"
)

// bodyTypes mints a fresh value of every request body a /v1 POST
// decodes.
var bodyTypes = []func() any{
	func() any { return new(api.SessionSpec) },
	func() any { return new(api.TypesRequest) },
	func() any { return new(api.ExperimentRequest) },
	func() any { return new(api.ClusterJoinRequest) },
	func() any { return new(api.ClusterStartRequest) },
	func() any { return new(api.ClusterFinishRequest) },
}

// decode runs decodeBody over one raw body, as a handler would.
func decode(body []byte, v any) *api.Error {
	r := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body))
	return decodeBody(httptest.NewRecorder(), r, v)
}

// FuzzDecodeBody feeds arbitrary bodies to decodeBody for every /v1
// request type. It must not panic; a body it accepts must be exactly
// one JSON value plus whitespace, and the accepted value's encoding must
// pass decodeBody again and decode to the same value.
//
//	go test -run FuzzDecodeBody -fuzz FuzzDecodeBody -fuzztime 30s ./internal/service/
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		`{"n":5}`, ` {"n":5,"k":1,"variant":"4.2"} ` + "\n", `{"types":[0,0,0,0,0]}`,
		`{"experiment":"e7","trials":2}`, `{}`, `null`, `[]`, `{`,
		`{"n":5}]`, `{"n":5}}}}`, `{"n":5} x`, `{"n":5}{"n":5}`, `{"bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, mint := range bodyTypes {
			v := mint()
			if decode(body, v) != nil {
				continue
			}
			if !json.Valid(body) {
				t.Fatalf("%T accepted %q, which is not one JSON value", v, body)
			}
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%T accepted %q but does not re-encode: %v", v, body, err)
			}
			again := mint()
			if e := decode(enc, again); e != nil {
				t.Fatalf("%T re-encoding %s of %q refused: %v", v, enc, body, e.Message)
			}
			if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
				t.Fatalf("%T: %q decodes to %s, whose decoding re-encodes to %s", v, body, enc, enc2)
			}
		}
	})
}
