package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"andorsched/internal/andor"
	"andorsched/internal/core"
	"andorsched/internal/workload"
)

// decodeLimit is the body limit of the decode tests: small enough that an
// oversized body is cheap to build and to fuzz.
const decodeLimit = 64

// decodeVia runs the server's decodeJSON on body behind the middleware's
// MaxBytesReader, and returns the status and message (0 and "" on
// success).
func decodeVia(s *Server, body io.Reader, v any) (int, string) {
	r := httptest.NewRequest(http.MethodPost, "/v1/run", body)
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, s.cfg.MaxBodyBytes)
	if apiErr := s.decodeJSON(r, v); apiErr != nil {
		return apiErr.status, apiErr.msg
	}
	return 0, ""
}

// decodeOracle is the request-body decoder as it was before bodies were
// read into pooled buffers: one json.Decoder value, then More() to reject
// trailing data. FuzzDecodeBody holds decodeJSON to its answers.
func decodeOracle(body io.Reader, limit int64, v any) (int, string) {
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(body), limit))
	if err := dec.Decode(v); err != nil {
		if strings.Contains(err.Error(), "request body too large") {
			return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit)
		}
		return http.StatusBadRequest, "invalid JSON body: " + err.Error()
	}
	if dec.More() {
		return http.StatusBadRequest, "trailing data after JSON body"
	}
	return 0, ""
}

// TestDecodeJSONContract pins what decodeJSON accepts and how it fails:
// the status, the message and the decoded request for each body class.
func TestDecodeJSONContract(t *testing.T) {
	s := &Server{cfg: Config{MaxBodyBytes: decodeLimit}}
	pad := strings.Repeat(" ", 2*decodeLimit)
	cases := []struct {
		name   string
		body   string
		status int
		msg    string
		want   RunRequest
	}{
		{name: "valid", body: `{"workload":"atr","runs":3,"seed":7}`,
			want: RunRequest{AppSpec: AppSpec{Workload: "atr"}, Runs: 3, Seed: 7}},
		{name: "raw graph", body: `{"graph":{"nodes":[]},"runs":2}`,
			want: RunRequest{AppSpec: AppSpec{Graph: json.RawMessage(`{"nodes":[]}`)}, Runs: 2}},
		{name: "trailing whitespace", body: "{\"workload\":\"atr\"} \n\t\r ",
			want: RunRequest{AppSpec: AppSpec{Workload: "atr"}}},
		{name: "trailing brace", body: `{"runs":1}}`,
			want: RunRequest{Runs: 1}},
		{name: "second value", body: `{"runs":1} {"runs":2}`,
			status: 400, msg: "trailing data after JSON body", want: RunRequest{Runs: 1}},
		{name: "trailing garbage", body: `{"runs":1} x`,
			status: 400, msg: "trailing data after JSON body", want: RunRequest{Runs: 1}},
		{name: "empty", body: ``,
			status: 400, msg: "invalid JSON body: EOF"},
		{name: "truncated", body: `{"workload":"at`,
			status: 400, msg: "invalid JSON body: unexpected EOF"},
		{name: "syntax error", body: `{"runs":1,}`,
			status: 400, msg: "invalid JSON body: invalid character '}' looking for beginning of object key string"},
		{name: "wrong type", body: `{"runs":"3","workload":"atr"}`,
			status: 400, msg: "invalid JSON body: json: cannot unmarshal string into Go struct field RunRequest.runs of type int",
			want: RunRequest{AppSpec: AppSpec{Workload: "atr"}}},
		{name: "over limit", body: `{"text":"` + strings.Repeat("x", decodeLimit) + `"}`,
			status: 413, msg: "request body exceeds 64 bytes"},
		{name: "valid then whitespace over limit", body: `{"runs":1}` + pad,
			want: RunRequest{Runs: 1}},
		{name: "valid then braces over limit", body: `{"runs":1}` + strings.Repeat("}", 2*decodeLimit),
			want: RunRequest{Runs: 1}},
		{name: "valid then garbage over limit", body: `{"runs":1}` + strings.Repeat("x", 2*decodeLimit),
			status: 400, msg: "trailing data after JSON body", want: RunRequest{Runs: 1}},
		{name: "second value over limit", body: `{"runs":1}` + pad[:decodeLimit-16] + `{"runs":2,"seed":3}`,
			status: 400, msg: "trailing data after JSON body", want: RunRequest{Runs: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got RunRequest
			status, msg := decodeVia(s, strings.NewReader(tc.body), &got)
			if status != tc.status || msg != tc.msg {
				t.Errorf("got %d %q, want %d %q", status, msg, tc.status, tc.msg)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("decoded %+v, want %+v", got, tc.want)
			}
		})
	}
}

// FuzzDecodeBody holds decodeJSON to the json.Decoder path it replaced:
// for any body, read whole or a few bytes at a time, both answer the same
// status and message and decode the same request.
func FuzzDecodeBody(f *testing.F) {
	s := &Server{cfg: Config{MaxBodyBytes: decodeLimit}}
	for _, body := range []string{
		`{"workload":"atr","runs":3,"seed":7}`,
		`{"graph":{"nodes":[]},"runs":2}`,
		`{"runs":1}}`,
		`{"runs":1} {"runs":2}`,
		`{"runs":"3","workload":"atr"}`,
		`{"schemes":["GSS","AS"],"schemes":["NPM"]}`,
		`{"items":[{"runs":1},{"runs":"x","seed":4}]}`,
		`{"overheads":{"speed_change_us":"x"},"overheads":{"speed_comp_cycles":2}}`,
		`{"runs":1}` + strings.Repeat(" ", 2*decodeLimit),
		`{"text":"` + strings.Repeat("x", decodeLimit) + `"}`,
		`123`, `null`, `[`, ``,
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	// fuzzRequest covers every request type's fields, so a divergence in
	// any of them shows.
	type fuzzRequest struct {
		RunRequest
		Schemes []string     `json:"schemes"`
		Items   []RunRequest `json:"items"`
	}
	f.Fuzz(func(t *testing.T, body []byte, trickle bool) {
		reader := func() io.Reader {
			if trickle {
				return iotest.HalfReader(bytes.NewReader(body))
			}
			return bytes.NewReader(body)
		}
		var got, want fuzzRequest
		gotStatus, gotMsg := decodeVia(s, reader(), &got)
		wantStatus, wantMsg := decodeOracle(reader(), decodeLimit, &want)
		if gotStatus != wantStatus || gotMsg != wantMsg {
			t.Fatalf("body %q: got %d %q, want %d %q", body, gotStatus, gotMsg, wantStatus, wantMsg)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %+v, want %+v", body, got, want)
		}
	})
}

// TestReadJSONDoesNotAliasBuffer: the request readJSON decodes owns its
// strings and raw messages. Scribbling over the pooled buffer after the
// decode — as the buffer's next user would — leaves it intact.
func TestReadJSONDoesNotAliasBuffer(t *testing.T) {
	for _, body := range []string{
		`{"text":"task A 1ms 1ms","graph":{"nodes":[]},"hetero":"biglittle","scheme":"GSS"}`,
		`{"text":"task A 1ms 1ms","graph":{"nodes":[]},"hetero":"biglittle","scheme":"GSS"}}`, // Decoder fallback
	} {
		var buf bytes.Buffer
		var req RunRequest
		if err := readJSON(&buf, strings.NewReader(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		b := buf.Bytes()
		b = b[:cap(b)]
		for i := range b {
			b[i] = 'Z'
		}
		want := RunRequest{AppSpec: AppSpec{Text: "task A 1ms 1ms", Graph: json.RawMessage(`{"nodes":[]}`),
			Hetero: json.RawMessage(`"biglittle"`)}, Scheme: "GSS"}
		if !reflect.DeepEqual(req, want) {
			t.Errorf("%s: after overwriting the buffer the request is %+v, want %+v", body, req, want)
		}
	}
}

// decodeRunVia runs the server's decodeRun on body as decodeVia runs
// decodeJSON, and returns the decoded request with its text built.
func decodeRunVia(s *Server, body io.Reader) (int, string, RunRequest) {
	r := httptest.NewRequest(http.MethodPost, "/v1/run", body)
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, s.cfg.MaxBodyBytes)
	var rs runState
	status, msg := 0, ""
	if apiErr := s.decodeRun(r, &rs); apiErr != nil {
		status, msg = apiErr.status, apiErr.msg
	}
	return status, msg, withTextBuilt(rs.req)
}

// withTextBuilt returns req with a text left in rawText moved to Text.
func withTextBuilt(req RunRequest) RunRequest {
	if req.rawText != nil {
		req.Text, req.rawText = string(req.rawText), nil
	}
	return req
}

// FuzzDecodeRequestFast holds /v1/run's one-pass decoder to
// encoding/json. Wherever decodeRunFast accepts a body, the request it
// decodes, with its text built, must equal what json.Unmarshal decodes,
// and json.Unmarshal must accept the body too. And decodeRun, fast path
// or fallback, must answer every body with the status, message and
// request of the json.Decoder path (decodeOracle), read whole or a few
// bytes at a time.
func FuzzDecodeRequestFast(f *testing.F) {
	const limit = 256
	s := &Server{cfg: Config{MaxBodyBytes: limit}}
	for _, body := range []string{
		`{"text":"task A 1ms 1ms\ntask B 2ms 1ms\nedge A -> B","scheme":"GSS","seed":11}`,
		`{"workload":"atr","scheme":"AS","runs":3,"seed":7,"procs":4,"platform":"xscale","worst":true}`,
		`{"text":"task \ud83d\ude00 1ms 1ms","load":0.25}`, // a surrogate pair
		`{"text":"task \ud83d 1ms 1ms"}`,                   // a lone surrogate
		`{"scheme":"\udc00é\/\"\\\b\f\n\r\t"}`,
		`{"seed":1,"seed":2,"text":"a","text":"b"}`,            // duplicate keys
		`{"Text":"task A 1ms 1ms"}`, `{"TEXT":"x","text":"y"}`, // case variants
		`{"procs":-0,"deadline":-0,"load":-0.0e-0}`, `{"seed":-0}`,
		`{"runs":01}`, `{"deadline":1e400}`, `{"load":.5}`, `{"load":1.}`, `{"runs":1e2}`,
		`{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`,
		`{"runs":9223372036854775808}`,
		`{"scheme":null}`, `null`, `{}`, ` { } `, `{"runs":1,}`, `{,}`,
		`{"runs":1} x`, `{"runs":1}}`, `{"runs":1} {"runs":2}`,
		`{"hetero":"biglittle","placement":"energy-greedy"}`, `{"hetero":{"classes":[]}}`,
		`{"graph":"x"}`, `{"graph":{"nodes":[]}}`, `{"overheads":{"speed_change_us":1}}`,
		`{"worst":false,"worst":1}`, `{"unknown":1}`, `{"text":"a\u0000b"}`,
		"{\"text\":\"\xff\"}", "{\"text\":\"a\tb\"}", `{"text":"\x"}`, `{"text":"\u12"}`,
		`{"text":"` + strings.Repeat("x", limit) + `"}`,
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, trickle bool) {
		var fast RunRequest
		if _, ok := decodeRunFast(body, &fast, nil); ok {
			var want RunRequest
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("body %q: the fast path accepted what json.Unmarshal refuses: %v", body, err)
			}
			if got := withTextBuilt(fast); !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q: fast path decoded %+v, json.Unmarshal %+v", body, got, want)
			}
		}
		reader := func() io.Reader {
			if trickle {
				return iotest.HalfReader(bytes.NewReader(body))
			}
			return bytes.NewReader(body)
		}
		var want RunRequest
		gotStatus, gotMsg, got := decodeRunVia(s, reader())
		wantStatus, wantMsg := decodeOracle(reader(), limit, &want)
		if gotStatus != wantStatus || gotMsg != wantMsg {
			t.Fatalf("body %q: got %d %q, want %d %q", body, gotStatus, gotMsg, wantStatus, wantMsg)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %+v, want %+v", body, got, want)
		}
	})
}

// TestDecodeRunFastScope pins which bodies the one-pass decoder takes and
// which it leaves to encoding/json.
func TestDecodeRunFastScope(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"text":"edge A -\u003e B\n","scheme":"GSS","seed":3,"platform":"transmeta","procs":2}`, true},
		{`{"text":"\ud83d\ude00","hetero":"biglittle","load":1e-3,"worst":true,"runs":2,"chunks":1}`, true},
		{` {"seed":1,"seed":2} ` + "\n", true},
		{`{}`, true},
		{`{"text":"\ud83d"}`, false},
		{"{\"text\":\"\xff\"}", false},
		{`{"Text":"a"}`, false},
		{`{"scheme":null}`, false},
		{`{"hetero":{"classes":[]}}`, false},
		{`{"runs":01}`, false},
		{`{"deadline":1e400}`, false},
		{`{"seed":18446744073709551616}`, false},
		{`{"runs":1}}`, false},
		{`{"unknown":1}`, false},
	} {
		var req RunRequest
		if _, ok := decodeRunFast([]byte(tc.body), &req, nil); ok != tc.ok {
			t.Errorf("%s: fast path took it %v, want %v", tc.body, ok, tc.ok)
		}
	}
}

// TestLazyTextDoesNotAliasBuffer: a text decodeRunFast left in its buffer
// is copied out before it is parsed, on a text-memo miss and by
// parseDeferred after a memo hit. Scribbling over the buffer afterwards —
// as the next request using it would — changes neither the plan's node
// names nor its graph digest.
func TestLazyTextDoesNotAliasBuffer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	text := andor.FormatText(workload.Random(4, andor.DefaultRandomOpts()))
	body, err := json.Marshal(map[string]any{"text": text, "seed": 1})
	if err != nil {
		t.Fatal(err)
	}
	var req RunRequest
	buf, ok := decodeRunFast(body, &req, nil)
	if !ok || string(req.rawText) != text {
		t.Fatalf("fast path: ok %v, text %q", ok, req.rawText)
	}
	var plans []*core.Plan
	for _, pass := range []string{"memo miss", "memo hit"} {
		ra, apiErr := s.resolveApp(&req.AppSpec)
		if apiErr == nil {
			apiErr = ra.parseDeferred()
		}
		if apiErr != nil {
			t.Fatalf("%s: %v", pass, apiErr.msg)
		}
		if (pass == "memo hit") != (ra.spec != nil) {
			t.Fatalf("%s: the text was parsed eagerly %v", pass, ra.spec == nil)
		}
		plan, err := buildPlan(ra, nil)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	snapshot := func() (names []string, digests [][32]byte) {
		for _, p := range plans {
			for _, n := range p.Graph.Nodes() {
				names = append(names, strings.Clone(n.Name))
			}
			digests = append(digests, graphDigest(p.Graph))
		}
		return names, digests
	}
	names, digests := snapshot()
	b := buf[:cap(buf)]
	for i := range b {
		b[i] = 'Z'
	}
	if afterNames, afterDigests := snapshot(); !reflect.DeepEqual(afterNames, names) || !reflect.DeepEqual(afterDigests, digests) {
		t.Errorf("overwriting the text buffer changed the plans: names %q -> %q", names, afterNames)
	}
}
