package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// scanBody is one scan request's body, read whole, and the inputs decoded
// from it. Bodies are pooled across requests: the handler takes one in
// readScanBody, and the scan goroutine gives it back (release) once
// ScanBatch or ScanParallel has returned, because until then the inputs
// alias raw and arena.
type scanBody struct {
	raw []byte
	// arena holds the fast path's base64 inputs, decoded back to back.
	arena []byte
	// spans are the [start, end) offsets in raw of the fast path's input
	// strings, quotes excluded.
	spans [][2]int
	// inputs are the decoded inputs: capped subslices of arena (base64),
	// of raw (text, or a raw body), or the reference decoder's own slices.
	inputs [][]byte
}

// A scanBody keeps its buffers across requests only up to these sizes, so
// that one large upload does not stay resident in the pool.
const (
	maxPooledBytes  = 1 << 20
	maxPooledInputs = 1 << 12
)

var scanBodies = sync.Pool{New: func() any { return new(scanBody) }}

// release returns b to the pool; b and its inputs must not be used after.
func (b *scanBody) release() {
	if cap(b.raw) > maxPooledBytes || cap(b.arena) > maxPooledBytes ||
		cap(b.spans) > maxPooledInputs || cap(b.inputs) > maxPooledInputs {
		return
	}
	clear(b.inputs)
	b.inputs = b.inputs[:0]
	scanBodies.Put(b)
}

// readScanBody reads a scan request's body whole into a pooled scanBody
// and decodes its inputs: a JSON ScanRequest when asJSON, else one raw
// input. A JSON body of the common shape decodes in one pass (decodeFast);
// any other body, and any body whose read failed, is decoded by
// encoding/json over the bytes read followed by the read's error, which is
// exactly what that decoder sees reading the body itself. The accepted
// language, the error text and bodyErrStatus's status are therefore those
// of ScanRequest decoded with json.NewDecoder and DecodeInputs. On error
// nothing is left to release.
func readScanBody(body io.Reader, asJSON bool) (*scanBody, error) {
	b := scanBodies.Get().(*scanBody)
	raw, rerr := readAll(b.raw[:0], body)
	b.raw = raw
	switch {
	case !asJSON:
		if rerr != nil {
			b.release()
			return nil, fmt.Errorf("read body: %w", rerr)
		}
		b.inputs = append(b.inputs[:0], raw[:len(raw):len(raw)])
	case rerr == nil && b.decodeFast():
	default:
		if rerr == nil {
			rerr = io.EOF
		}
		var req ScanRequest
		if err := json.NewDecoder(io.MultiReader(bytes.NewReader(raw), errReader{rerr})).Decode(&req); err != nil {
			b.release()
			return nil, fmt.Errorf("decode scan request: %w", err)
		}
		inputs, err := req.DecodeInputs()
		if err != nil {
			b.release()
			return nil, err
		}
		b.inputs = inputs
	}
	return b, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// readAll appends r's bytes to buf until EOF (returned as nil) or another
// error, growing buf as io.ReadAll does.
func readAll(buf []byte, r io.Reader) ([]byte, error) {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeFast decodes b.raw when it is a JSON object of the common shape
// {"inputs":[...],"encoding":...}: keys spelled exactly "inputs" and
// "encoding", in either order, each at most once; JSON whitespace between
// tokens; strings of printable ASCII with no backslash; the encoding absent,
// "base64" or "text"; and every base64 input valid. Bytes after the closing
// brace are not read, as json.Decoder does not read them. It reports false
// for any other body, and then b.inputs is not to be used.
func (b *scanBody) decodeFast() bool {
	buf := b.raw
	b.spans = b.spans[:0]
	var seenInputs, seenEncoding, text bool
	i := skipSpace(buf, 0)
	if i == len(buf) || buf[i] != '{' {
		return false
	}
	for {
		// A key or an encoding with a backslash matches none of the
		// spellings below, so the quote stringEnd finds closes it.
		i = skipSpace(buf, i+1)
		q := stringEnd(buf, i)
		if q < 0 {
			return false
		}
		key := buf[i+1 : q]
		i = skipSpace(buf, q+1)
		if i == len(buf) || buf[i] != ':' {
			return false
		}
		i = skipSpace(buf, i+1)
		switch {
		case string(key) == "inputs" && !seenInputs:
			seenInputs = true
			if i = b.scanInputs(buf, i); i < 0 {
				return false
			}
		case string(key) == "encoding" && !seenEncoding:
			seenEncoding = true
			if q = stringEnd(buf, i); q < 0 {
				return false
			}
			switch string(buf[i+1 : q]) {
			case "base64":
			case "text":
				text = true
			default:
				return false
			}
			i = q + 1
		default:
			return false
		}
		i = skipSpace(buf, i)
		if i == len(buf) {
			return false
		}
		if buf[i] == '}' {
			break
		}
		if buf[i] != ',' {
			return false
		}
	}
	return b.decodeSpans(text)
}

// scanInputs records the span of every string of the array that opens at
// buf[i] and returns the index after its ']', or -1 when the array is not
// one of strings. The strings' bytes are checked by decodeSpans: until
// then a quote after a backslash may be taken for a closing one, but the
// backslash fails that check.
func (b *scanBody) scanInputs(buf []byte, i int) int {
	if i == len(buf) || buf[i] != '[' {
		return -1
	}
	i = skipSpace(buf, i+1)
	if i < len(buf) && buf[i] == ']' {
		return i + 1
	}
	for {
		q := stringEnd(buf, i)
		if q < 0 {
			return -1
		}
		b.spans = append(b.spans, [2]int{i + 1, q})
		i = skipSpace(buf, q+1)
		if i == len(buf) {
			return -1
		}
		switch buf[i] {
		case ']':
			return i + 1
		case ',':
			i = skipSpace(buf, i+1)
		default:
			return -1
		}
	}
}

// decodeSpans builds b.inputs from b.spans: the strings themselves for
// text, else each one base64-decoded into the arena. It reports false on a
// string that is not printable ASCII without a backslash, or not valid
// base64. base64 rejects every byte outside its alphabet but for '\r' and
// '\n', which it skips where JSON rejects them raw, so only those two are
// looked for in a base64 string.
func (b *scanBody) decodeSpans(text bool) bool {
	b.inputs = b.inputs[:0]
	if text {
		for _, s := range b.spans {
			in := b.raw[s[0]:s[1]:s[1]]
			if !plain(in) {
				return false
			}
			b.inputs = append(b.inputs, in)
		}
		return true
	}
	n := 0
	for _, s := range b.spans {
		n += base64.StdEncoding.DecodedLen(s[1] - s[0])
	}
	if cap(b.arena) < n {
		b.arena = make([]byte, n)
	}
	arena := b.arena[:n]
	off := 0
	for _, s := range b.spans {
		src := b.raw[s[0]:s[1]]
		if bytes.IndexByte(src, '\n') >= 0 || bytes.IndexByte(src, '\r') >= 0 {
			return false
		}
		m, err := base64.StdEncoding.Decode(arena[off:], src)
		if err != nil {
			return false
		}
		b.inputs = append(b.inputs, arena[off:off+m:off+m])
		off += m
	}
	return true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(buf []byte, i int) int {
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\t' || buf[i] == '\n' || buf[i] == '\r') {
		i++
	}
	return i
}

// stringEnd returns the index of the first quote after the one that opens
// a string at buf[i], or -1 when buf[i] opens none or no quote follows.
func stringEnd(buf []byte, i int) int {
	if i >= len(buf) || buf[i] != '"' {
		return -1
	}
	q := bytes.IndexByte(buf[i+1:], '"')
	if q < 0 {
		return -1
	}
	return i + 1 + q
}

// plain reports whether s is printable ASCII with no backslash: a JSON
// string's contents that decode to themselves.
func plain(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	return true
}
