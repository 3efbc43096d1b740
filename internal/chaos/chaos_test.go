package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// okUpstream is a plain upstream answering 200 with a fixed body.
func okUpstream(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// get issues one GET through a client built on the injected transport.
func get(t *testing.T, in *Injector, rawURL string, timeout time.Duration) (*http.Response, []byte, error) {
	t.Helper()
	c := &http.Client{Transport: in.Transport(nil)}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	return resp, b, rerr
}

func TestInjectorErrorAndDrop(t *testing.T) {
	up := okUpstream(t, "ok")

	in := New(1, Rule{ErrorRate: 1, ErrorCode: 503})
	resp, body, err := get(t, in, up.URL, time.Second)
	if err != nil {
		t.Fatalf("error fault should produce a response, got transport error %v", err)
	}
	if resp.StatusCode != 503 || !strings.Contains(string(body), "chaos_injected") {
		t.Fatalf("want synthetic 503 envelope, got %d %q", resp.StatusCode, body)
	}

	in.SetRules(Rule{DropRate: 1})
	if _, _, err := get(t, in, up.URL, time.Second); err == nil {
		t.Fatal("drop fault should surface as a transport error")
	}

	if got := in.Stats(); got[FaultError] != 1 || got[FaultDrop] != 1 {
		t.Fatalf("stats = %v, want one error and one drop", got)
	}
}

func TestInjectorLatencyAndBlackholeRespectDeadline(t *testing.T) {
	up := okUpstream(t, "ok")

	in := New(1, Rule{Latency: 10 * time.Second})
	start := time.Now()
	_, _, err := get(t, in, up.URL, 50*time.Millisecond)
	if err == nil {
		t.Fatal("latency past the deadline must fail the request")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request outlived its deadline by far: %v", elapsed)
	}

	in.SetRules(Rule{BlackholeRate: 1})
	start = time.Now()
	if _, _, err := get(t, in, up.URL, 50*time.Millisecond); err == nil {
		t.Fatal("blackholed request must fail at the deadline")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("blackhole ignored the deadline: %v", elapsed)
	}
	if got := in.Stats(); got[FaultLatency] != 1 || got[FaultBlackhole] != 1 {
		t.Fatalf("stats = %v, want one latency and one blackhole", got)
	}
}

func TestInjectorTruncateAndAfterAndMatch(t *testing.T) {
	up := okUpstream(t, strings.Repeat("x", 1024))

	// After=2 passes the first two matched requests unharmed.
	in := New(7, Rule{PathPrefix: "/", TruncateRate: 1, TruncateBytes: 8, After: 2})
	for i := 0; i < 2; i++ {
		if _, body, err := get(t, in, up.URL, time.Second); err != nil || len(body) != 1024 {
			t.Fatalf("request %d within After: err %v, %d bytes", i, err, len(body))
		}
	}
	_, body, err := get(t, in, up.URL, time.Second)
	if err == nil {
		t.Fatalf("truncated body must fail the read (got %d clean bytes)", len(body))
	}
	if !IsInjected(err) {
		t.Fatalf("want injected fault marker, got %v", err)
	}
	if len(body) > 8 {
		t.Fatalf("truncation let %d bytes through, budget 8", len(body))
	}

	// Method/path selection: a rule pinned to POST /v1/ leaves GETs alone.
	in.SetRules(Rule{Method: http.MethodPost, PathPrefix: "/v1/", DropRate: 1})
	if _, _, err := get(t, in, up.URL, time.Second); err != nil {
		t.Fatalf("unmatched request must pass: %v", err)
	}

	// Disabling passes everything without touching rules.
	in.SetRules(Rule{DropRate: 1})
	in.SetEnabled(false)
	if _, _, err := get(t, in, up.URL, time.Second); err != nil {
		t.Fatalf("disabled injector must pass: %v", err)
	}
}

func TestInjectorDeterministicSeed(t *testing.T) {
	up := okUpstream(t, "ok")
	sequence := func(seed uint64) []bool {
		in := New(seed, Rule{ErrorRate: 0.5})
		var out []bool
		for i := 0; i < 32; i++ {
			resp, _, err := get(t, in, up.URL, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.StatusCode == http.StatusOK)
		}
		return out
	}
	a, b := sequence(42), sequence(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %v vs %v", i, a, b)
		}
	}
}

func TestProxyFaultsAndControlAPI(t *testing.T) {
	up := okUpstream(t, `{"status":"ok"}`)
	target, _ := url.Parse(up.URL)
	p := NewProxy(target, New(3))
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)

	// Clean pass-through first.
	resp, err := http.Get(front.URL + "/v1/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pass-through status %d", resp.StatusCode)
	}

	// Turn on drops via the control API: proxied requests now reset.
	if _, err := http.Post(front.URL+"/_chaos/set?drop_rate=1", "", nil); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(front.URL + "/v1/anything"); err == nil {
		resp.Body.Close()
		t.Fatal("dropped request should reset the connection")
	}
	// The control API itself is never injected.
	sresp, err := http.Get(front.URL + "/_chaos/stats")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()

	// /_chaos/off restores pass-through.
	if _, err := http.Post(front.URL+"/_chaos/off", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(front.URL + "/v1/anything")
	if err != nil {
		t.Fatalf("after /_chaos/off: %v", err)
	}
	resp.Body.Close()

	// Truncation through the proxy: body read fails downstream.
	if _, err := http.Post(front.URL+"/_chaos/set?truncate_rate=1&truncate_bytes=3", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(front.URL + "/v1/anything")
	if err == nil {
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("truncated proxy response should fail the body read")
		}
	}

	// Retargeting: point at a second upstream and see its body.
	up2 := okUpstream(t, `{"status":"second"}`)
	t2, _ := url.Parse(up2.URL)
	p.SetTarget(t2)
	if _, err := http.Post(front.URL+"/_chaos/off", "", nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(front.URL + "/v1/anything")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "second") {
		t.Fatalf("retargeted proxy answered %q", b)
	}
}

func TestRuleFromQueryRejectsGarbage(t *testing.T) {
	if _, err := ruleFromQuery(url.Values{"latency": {"soon"}}); err == nil {
		t.Fatal("bad duration must error")
	}
	if _, err := ruleFromQuery(url.Values{"error_rate": {"lots"}}); err == nil {
		t.Fatal("bad rate must error")
	}
	r, err := ruleFromQuery(url.Values{
		"latency": {"250ms"}, "error_rate": {"0.5"}, "path": {"/v1/"}, "after": {"3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency != 250*time.Millisecond || r.ErrorRate != 0.5 || r.PathPrefix != "/v1/" || r.After != 3 {
		t.Fatalf("decoded rule %+v", r)
	}
}

func TestTruncatedBodyMarksInjected(t *testing.T) {
	b := &truncatedBody{rc: io.NopCloser(strings.NewReader("abcdef")), remaining: 4}
	got, err := io.ReadAll(b)
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if string(got) != "abcd" {
		t.Fatalf("read %q, want first 4 bytes", got)
	}
}
