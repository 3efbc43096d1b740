package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nbody/internal/par"
)

// FuzzCreateSessionJSON throws arbitrary bytes at POST /v1/sessions. The
// handler must never panic and must answer every malformed body with a
// well-formed 4xx; the only accepted bodies are valid JSON within the
// service limits (answered 201 or, once the cap is hit, 429).
func FuzzCreateSessionJSON(f *testing.F) {
	seeds := []string{
		`{"workload":"plummer","n":8,"config":{"dt":0.001}}`,
		`{"workload":"galaxy","n":16,"seed":7,"config":{"algorithm":"bvh","dt":1e-4}}`,
		``,
		`null`,
		`[]`,
		`{`,
		`{"workload":`,
		`{"n":"many","config":{"dt":0.001}}`,
		`{"n":8,"config":{"dt":"fast"}}`,
		`{"n":8,"config":{"dt":0.001},"unknown_field":true}`,
		`{"n":-1,"config":{"dt":0.001}}`,
		`{"n":1e30,"config":{"dt":0.001}}`,
		`{"n":8,"config":{"dt":-0.001}}`,
		`{"n":8,"config":{"dt":1e999}}`,
		string([]byte{0x7b, 0x00, 0x01, 0x02, 0xff, 0x7d}),
		`{"n":8,"config":{"dt":0.001}}{"n":8,"config":{"dt":0.001}}`,
		"\x00\x01\x02\xff",
		strings.Repeat("9", 4096),
		`{"workload":"plummer","n":8,"config":{"dt":0.001,"tree_reuse":{"rebuild_every":-3}},"validate_every":-1}`,
		`{"workload":"plummer","n":8,"config":{"dt":0.001,"theta":-5,"eps":-1,"g":-1}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	m, err := NewManager(Config{
		MaxSessions: 4,
		MaxBodies:   64,
		IdleTTL:     time.Hour,
		Runtime:     par.NewRuntime(1, par.Dynamic),
	})
	if err != nil {
		f.Fatal(err)
	}
	handler := NewHandler(m)

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req) // must not panic

		switch rr.Code {
		case http.StatusCreated:
			// Accepted: delete it so the cap never interferes with
			// subsequent inputs.
			var loc string
			if loc = rr.Result().Header.Get("Location"); loc == "" {
				t.Fatalf("201 without Location header")
			}
			dreq := httptest.NewRequest(http.MethodDelete, loc, nil)
			drr := httptest.NewRecorder()
			handler.ServeHTTP(drr, dreq)
			if drr.Code != http.StatusNoContent {
				t.Fatalf("cleanup delete of %s = %d", loc, drr.Code)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
			if ct := rr.Result().Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error response content type %q", ct)
			}
		default:
			t.Fatalf("unexpected status %d for body %q", rr.Code, body)
		}
	})
}
