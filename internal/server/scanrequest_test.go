package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"sunder"
)

// postJSONScan POSTs body as a JSON scan request and returns the status
// with either the decoded response or the error text.
func postJSONScan(t *testing.T, url string, body []byte) (int, ScanResponse, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out ScanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode response %q: %v", raw, err)
		}
		return resp.StatusCode, out, ""
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decode error response %q: %v", raw, err)
	}
	return resp.StatusCode, out, e.Error
}

// scanRequestCase is one JSON scan body with what the server answers: the
// inputs it scans (status 200) or the status and error text.
type scanRequestCase struct {
	name   string
	body   string
	inputs []string
	status int
	err    string
}

// b64 is base64.StdEncoding of s.
func b64(s string) string { return base64.StdEncoding.EncodeToString([]byte(s)) }

// scanRequestCases is the accepted language of POST /rulesets/{id}/scan
// JSON bodies, pinned against a server whose MaxBodyBytes is
// scanRequestLimit. The fuzz target seeds from the same bodies.
const scanRequestLimit = 1024

func scanRequestCases(t testing.TB) []scanRequestCase {
	slashed := "GET /admin abc ???"
	slashedB64 := b64(slashed)
	if !strings.Contains(slashedB64, "/") {
		t.Fatalf("%q encodes without a '/': %s", slashed, slashedB64)
	}
	big := strings.Repeat("GET /admin ", scanRequestLimit/8)
	return []scanRequestCase{
		{name: "base64 default", body: `{"inputs":["` + b64("GET /admin abc") + `","` + b64("no match") + `"]}`,
			inputs: []string{"GET /admin abc", "no match"}},
		{name: "base64 explicit, key order swapped", body: `{"encoding":"base64","inputs":["` + b64("f=/etc/passwd") + `"]}`,
			inputs: []string{"f=/etc/passwd"}},
		{name: "text encoding", body: `{"inputs":["GET /admin abc","SELECT a FROM b"],"encoding":"text"}`,
			inputs: []string{"GET /admin abc", "SELECT a FROM b"}},
		{name: "whitespace everywhere", body: " \n\t{ \"inputs\" :\r[ \"" + b64("axcabc") + "\" ,\n\"" + b64("") + "\" ] ,\t\"encoding\" : \"base64\" }\n",
			inputs: []string{"axcabc", ""}},
		{name: "empty base64 string", body: `{"inputs":[""]}`, inputs: []string{""}},
		{name: "empty encoding means base64", body: `{"inputs":["` + b64("GET /admin") + `"],"encoding":""}`,
			inputs: []string{"GET /admin"}},
		{name: "unknown encoding", body: `{"inputs":["YQ=="],"encoding":"hex"}`,
			status: http.StatusBadRequest, err: `unknown encoding "hex" (want base64 or text)`},
		{name: "unknown encoding without inputs", body: `{"inputs":[],"encoding":"hex"}`,
			status: http.StatusBadRequest, err: "no inputs"},
		{name: "invalid base64", body: `{"inputs":["YQ==","Y*Q="]}`,
			status: http.StatusBadRequest, err: "inputs[1]: illegal base64 data at input byte 1"},
		{name: "base64 missing padding", body: `{"inputs":["YWJj","YQ"]}`,
			status: http.StatusBadRequest, err: "inputs[1]: illegal base64 data at input byte 0"},
		{name: "body over MaxBodyBytes", body: `{"inputs":["` + b64(big) + `"]}`,
			status: http.StatusRequestEntityTooLarge, err: "decode scan request: http: request body too large"},
		{name: "value ends before MaxBodyBytes", body: `{"inputs":["` + b64("GET /admin") + `"]}` + strings.Repeat(" ", 2*scanRequestLimit),
			inputs: []string{"GET /admin"}},
		{name: "bytes after the closing brace", body: `{"inputs":["` + b64("GET /admin") + `"]} trailing {garbage`,
			inputs: []string{"GET /admin"}},
		{name: "case-variant key", body: `{"Inputs":["` + b64("/etc/passwd") + `"],"ENCODING":"base64"}`,
			inputs: []string{"/etc/passwd"}},
		{name: "escaped slash in base64", body: `{"inputs":["` + strings.ReplaceAll(slashedB64, "/", `\/`) + `"]}`,
			inputs: []string{slashed}},
		{name: "escapes in text", body: `{"inputs":["GET \/admin\r\nabcA"],"encoding":"text"}`,
			inputs: []string{"GET /admin\r\nabcA"}},
		{name: "escaped quotes in text", body: `{"inputs":["ab\",\"cd"],"encoding":"text"}`,
			inputs: []string{`ab","cd`}},
		{name: "escaped quotes in base64", body: `{"inputs":["YQ\",\"==","YQ=="]}`,
			status: http.StatusBadRequest, err: "inputs[0]: illegal base64 data at input byte 2"},
		{name: "raw newline in base64", body: "{\"inputs\":[\"YQ\n==\"]}",
			status: http.StatusBadRequest, err: "decode scan request: invalid character '\\n' in string literal"},
		{name: "escaped newline in base64", body: `{"inputs":["YQ\n=="]}`, inputs: []string{"a"}},
		{name: "non-ASCII text", body: `{"inputs":["héllo GET /admin"],"encoding":"text"}`,
			inputs: []string{"héllo GET /admin"}},
		{name: "duplicate inputs key keeps the last", body: `{"inputs":["` + b64("first") + `"],"inputs":["` + b64("GET /admin") + `","x"],"encoding":"text"}`,
			inputs: []string{b64("GET /admin"), "x"}},
		{name: "unknown key ignored", body: `{"inputs":["` + b64("abc") + `"],"workers":4}`,
			inputs: []string{"abc"}},
		{name: "null input element", body: `{"inputs":[null,"` + b64("abc") + `"]}`,
			inputs: []string{"", "abc"}},
		{name: "inputs null", body: `{"inputs":null}`, status: http.StatusBadRequest, err: "no inputs"},
		{name: "inputs empty", body: `{"inputs":[]}`, status: http.StatusBadRequest, err: "no inputs"},
		{name: "empty object", body: `{}`, status: http.StatusBadRequest, err: "no inputs"},
		{name: "top-level null", body: `null`, status: http.StatusBadRequest, err: "no inputs"},
		{name: "empty body", body: ``, status: http.StatusBadRequest, err: "decode scan request: EOF"},
		{name: "truncated", body: `{"inputs":["YQ==",`, status: http.StatusBadRequest, err: "decode scan request: unexpected EOF"},
		{name: "syntax error", body: `{"inputs":["YQ=="]]`,
			status: http.StatusBadRequest, err: "decode scan request: invalid character ']' after object key:value pair"},
		{name: "control byte in string", body: "{\"inputs\":[\"YQ\x01==\"]}",
			status: http.StatusBadRequest, err: "decode scan request: invalid character '\\x01' in string literal"},
		{name: "inputs not an array", body: `{"inputs":"YQ=="}`,
			status: http.StatusBadRequest, err: "decode scan request: json: cannot unmarshal string into Go struct field ScanRequest.inputs of type []string"},
		{name: "number element", body: `{"inputs":[1]}`,
			status: http.StatusBadRequest, err: "decode scan request: json: cannot unmarshal number into Go struct field ScanRequest.inputs of type string"},
		{name: "encoding not a string", body: `{"inputs":["YQ=="],"encoding":1}`,
			status: http.StatusBadRequest, err: "decode scan request: json: cannot unmarshal number into Go struct field ScanRequest.encoding of type string"},
	}
}

// TestServerScanRequestLanguage pins what POST /rulesets/{id}/scan accepts
// as a JSON body: every case answers with its status and error text, or
// scans exactly its inputs, matching library Scan on each.
func TestServerScanRequestLanguage(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1, MaxBodyBytes: scanRequestLimit})
	putRuleset(t, ts.URL, "nids", RulesetRequest{Patterns: testRules})
	eng, err := sunder.Compile((&RulesetRequest{Patterns: testRules}).SunderPatterns(), sunder.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range scanRequestCases(t) {
		status, out, msg := postJSONScan(t, ts.URL+"/rulesets/nids/scan", []byte(c.body))
		if c.inputs == nil {
			if status != c.status || msg != c.err {
				t.Errorf("%s: status %d %q, want %d %q", c.name, status, msg, c.status, c.err)
			}
			continue
		}
		if status != http.StatusOK {
			t.Errorf("%s: status %d %q, want 200", c.name, status, msg)
			continue
		}
		if len(out.Results) != len(c.inputs) {
			t.Errorf("%s: %d results, want %d", c.name, len(out.Results), len(c.inputs))
			continue
		}
		for i, in := range c.inputs {
			want, err := eng.Scan([]byte(in))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s: input %d", c.name, i)
			sameMatches(t, label, out.Results[i].Matches, matchesJSON(want.Matches))
			if out.Results[i].Stats != statsJSON(want.Stats) {
				t.Errorf("%s: stats %+v, want %+v", label, out.Results[i].Stats, statsJSON(want.Stats))
			}
		}
	}
}

// referenceScanRequest is what POST /rulesets/{id}/scan decoded before the
// fast path: encoding/json over the body, then DecodeInputs, with the
// handler's error text.
func referenceScanRequest(body io.Reader) ([][]byte, error) {
	var req ScanRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, fmt.Errorf("decode scan request: %w", err)
	}
	return req.DecodeInputs()
}

// FuzzScanRequest holds readScanBody to the reference decoder: for any
// body under any MaxBodyBytes, both give equal inputs, or the same error
// text and status. oneByte feeds the fast side one byte per Read.
func FuzzScanRequest(f *testing.F) {
	for _, c := range scanRequestCases(f) {
		f.Add([]byte(c.body), uint16(scanRequestLimit), false)
		f.Add([]byte(c.body), uint16(len(c.body)/2), true)
	}
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16, oneByte bool) {
		var src io.Reader = bytes.NewReader(body)
		if oneByte {
			src = iotest.OneByteReader(src)
		}
		got, gotErr := readScanBody(http.MaxBytesReader(nil, io.NopCloser(src), int64(limit)), true)
		want, wantErr := referenceScanRequest(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(limit)))
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || s.bodyErrStatus(gotErr) != s.bodyErrStatus(wantErr) {
				t.Fatalf("body %q limit %d: error %v, want %v", body, limit, gotErr, wantErr)
			}
			return
		}
		defer got.release()
		if len(got.inputs) != len(want) {
			t.Fatalf("body %q limit %d: %d inputs, want %d", body, limit, len(got.inputs), len(want))
		}
		for i := range want {
			if !bytes.Equal(got.inputs[i], want[i]) {
				t.Fatalf("body %q limit %d: input %d = %q, want %q", body, limit, i, got.inputs[i], want[i])
			}
		}
	})
}

// batchBody is the benchmark's http_batch request shape: 16 inputs of
// 1 KiB, base64 in a JSON ScanRequest.
func batchBody(tb testing.TB) []byte {
	traffic := testTraffic(16 << 10)
	inputs := make([][]byte, 16)
	for i := range inputs {
		inputs[i] = traffic[i<<10 : (i+1)<<10]
	}
	body, err := json.Marshal(EncodeInputs(inputs))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkServerScanDecode times one http_batch-shaped body through the
// handler's decode (fast) against encoding/json with DecodeInputs
// (reference).
func BenchmarkServerScanDecode(b *testing.B) {
	body := batchBody(b)
	rd := bytes.NewReader(body)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			sb, err := readScanBody(rd, true)
			if err != nil {
				b.Fatal(err)
			}
			sb.release()
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			if _, err := referenceScanRequest(rd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestServerScanDecodeAllocs pins the warm fast path: an http_batch-shaped
// body decodes into pooled buffers without allocating, and each input is
// capped, so a scan that appends to one cannot write into the next.
func TestServerScanDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	body := batchBody(t)
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		sb, err := readScanBody(rd, true)
		if err != nil || len(sb.inputs) != 16 {
			t.Fatalf("decode: %v", err)
		}
		for i, in := range sb.inputs {
			if len(in) != 1<<10 || cap(in) != len(in) {
				t.Fatalf("input %d: len %d cap %d, want 1024 and capped", i, len(in), cap(in))
			}
		}
		sb.release()
	})
	if allocs > 0 {
		t.Errorf("fast decode: %.1f allocs/op, want 0", allocs)
	}
}

// TestServerScanTimeoutKeepsBody: a scan that outlives its request's
// deadline answers 504 while the scan goroutine still reads the inputs,
// which alias a pooled body. That body must stay out of the pool until the
// scan returns: requests decoding into pooled bodies meanwhile (on a second
// server, which shares the pool) must scan exactly their own inputs. Under
// -race, a handler that releases the body on the 504 path fails here.
func TestServerScanTimeoutKeepsBody(t *testing.T) {
	_, slow := newTestServer(t, Config{PoolSize: 4, QueueDepth: 64, ScanTimeout: time.Millisecond})
	_, fast := newTestServer(t, Config{PoolSize: 2, QueueDepth: 64})
	putRuleset(t, slow.URL, "nids", RulesetRequest{Patterns: testRules})
	putRuleset(t, fast.URL, "nids", RulesetRequest{Patterns: testRules})
	eng, err := sunder.Compile((&RulesetRequest{Patterns: testRules}).SunderPatterns(), sunder.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	traffic := testTraffic(64 << 10)
	slowBody, err := json.Marshal(EncodeInputs([][]byte{traffic[:16<<10], traffic[16<<10 : 32<<10], traffic[32<<10 : 48<<10], traffic[48<<10:]}))
	if err != nil {
		t.Fatal(err)
	}
	// Each fast request scans three distinct slices of the traffic, so a
	// body shared with another request shows in its results.
	type batch struct {
		body []byte
		want [][]MatchJSON
	}
	batches := make([]batch, 6)
	for k := range batches {
		var inputs [][]byte
		for j := 0; j < 3; j++ {
			off := (k*3 + j) * 1500
			inputs = append(inputs, traffic[off:off+1000+100*j])
		}
		body, err := json.Marshal(EncodeInputs(inputs))
		if err != nil {
			t.Fatal(err)
		}
		batches[k].body = body
		for _, in := range inputs {
			res, err := eng.Scan(in)
			if err != nil {
				t.Fatal(err)
			}
			batches[k].want = append(batches[k].want, matchesJSON(res.Matches))
		}
	}

	var timedOut atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Post(slow.URL+"/rulesets/nids/scan", "application/json", bytes.NewReader(slowBody))
				if err != nil {
					t.Errorf("slow client %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusGatewayTimeout:
					timedOut.Add(1)
				case http.StatusOK:
				default:
					t.Errorf("slow client %d: status %d", g, resp.StatusCode)
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				b := batches[(g+i)%len(batches)]
				resp, err := http.Post(fast.URL+"/rulesets/nids/scan", "application/json", bytes.NewReader(b.body))
				if err != nil {
					t.Errorf("fast client %d: %v", g, err)
					return
				}
				var out ScanResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != len(b.want) {
					t.Errorf("fast client %d: status %d, %v, %d results", g, resp.StatusCode, err, len(out.Results))
					return
				}
				for j := range b.want {
					sameMatches(t, fmt.Sprintf("fast client %d request %d input %d", g, i, j), out.Results[j].Matches, b.want[j])
				}
			}
		}(g)
	}
	wg.Wait()
	if timedOut.Load() == 0 {
		t.Fatal("no request timed out mid-scan; the test proves nothing")
	}
}
