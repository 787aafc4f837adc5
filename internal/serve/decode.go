package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"andorsched/internal/core"
	"andorsched/internal/obs"
)

// decodeRun decodes a /v1/run body into rs.req. A body that reads cleanly
// and is a flat object of RunRequest's fields is decoded in one pass by
// decodeRunFast, its text left unescaped in rs.text for resolveApp to hash
// and, only when it must be parsed, to copy. Any other body is decoded by
// readJSON's logic from the same bytes, so it is accepted or refused
// exactly as decodeJSON accepts or refuses it.
func (s *Server) decodeRun(r *http.Request, rs *runState) *apiError {
	rec := obs.TraceFromContext(r.Context())
	defer rec.Mark(PhaseDecode, "")
	b := jsonBufPool.Get().(*jsonBuf)
	defer putJSONBuf(b)
	b.buf.Reset()
	_, readErr := b.buf.ReadFrom(r.Body)
	if readErr == nil {
		var ok bool
		if rs.text, ok = decodeRunFast(b.buf.Bytes(), &rs.req, rs.text[:0]); ok {
			return nil
		}
		rs.req = RunRequest{} // the declined scan may have set fields
	}
	return s.bodyError(decodeRead(&b.buf, readErr, &rs.req))
}

// decodeRunFast decodes body into req in one pass when body is a flat JSON
// object: each key exactly one of RunRequest's JSON field names, each value
// a string, number or boolean of that field's type, nothing after the
// object but white space. The text is unescaped into text, which it
// returns grown, and req.rawText aliases it; the other strings are copied,
// a hetero or graph string as its raw token (as json.RawMessage keeps it).
// Numbers are converted by the strconv calls encoding/json makes.
//
// It reports false, leaving req partly written, for any body whose
// decoding it cannot vouch equals encoding/json's: a nested or null value,
// an unknown or case-variant key, a string with invalid UTF-8 or a lone
// surrogate (which encoding/json replaces), a number strconv rejects, a
// type mismatch, malformed JSON or trailing data.
func decodeRunFast(body []byte, req *RunRequest, text []byte) ([]byte, bool) {
	sc := scanner{b: body}
	if !sc.consume('{') {
		return text, false
	}
	hasText := false
	for more := !sc.consume('}'); more; {
		sc.space()
		key, escaped, ok := sc.str()
		if !ok || escaped || !sc.consume(':') {
			return text, false
		}
		sc.space()
		switch string(key) {
		case "text":
			raw, _, ok := sc.str()
			if !ok {
				return text, false
			}
			text, hasText = appendUnescaped(text[:0], raw), true
		case "graph":
			ok = sc.rawString(&req.Graph)
		case "hetero":
			ok = sc.rawString(&req.Hetero)
		case "workload":
			ok = sc.stringValue(&req.Workload)
		case "platform":
			ok = sc.stringValue(&req.Platform)
		case "placement":
			ok = sc.stringValue(&req.Placement)
		case "scheme":
			ok = sc.stringValue(&req.Scheme)
		case "procs":
			ok = sc.intValue(&req.Procs)
		case "runs":
			ok = sc.intValue(&req.Runs)
		case "chunks":
			ok = sc.intValue(&req.Chunks)
		case "deadline":
			ok = sc.floatValue(&req.Deadline)
		case "load":
			ok = sc.floatValue(&req.Load)
		case "seed":
			var tok []byte
			if tok, ok = sc.number(); ok {
				var err error
				req.Seed, err = strconv.ParseUint(string(tok), 10, 64)
				ok = err == nil
			}
		case "worst":
			ok = sc.boolValue(&req.Worst)
		default:
			ok = false
		}
		if !ok {
			return text, false
		}
		if !sc.consume(',') {
			if !sc.consume('}') {
				return text, false
			}
			more = false
		}
	}
	sc.space()
	if sc.i != len(sc.b) {
		return text, false
	}
	if hasText {
		req.rawText = text
	}
	return text, true
}

// scanner walks one JSON body for decodeRunFast.
type scanner struct {
	b []byte
	i int
}

// space skips JSON white space.
func (sc *scanner) space() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// consume skips white space and then c, reporting whether c was there.
func (sc *scanner) consume(c byte) bool {
	sc.space()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str scans the string token at the cursor and returns its contents with
// their escapes left in, and whether there were any. It reports false for
// a string encoding/json would reject or alter: a raw control character,
// an unknown escape, a lone surrogate, invalid UTF-8.
func (sc *scanner) str() (raw []byte, escaped, ok bool) {
	b := sc.b
	if sc.i >= len(b) || b[sc.i] != '"' {
		return nil, false, false
	}
	start := sc.i + 1
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			sc.i = i + 1
			return b[start:i], escaped, true
		case c == '\\':
			n := escapeLen(b[i:])
			if n == 0 {
				return nil, false, false
			}
			escaped = true
			i += n
		case c < 0x20:
			return nil, false, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false, false
			}
			i += size
		}
	}
	return nil, false, false
}

// escapeLen returns the length of the escape at the start of b, a
// surrogate pair counting as one escape, or 0 for one that encoding/json
// rejects or replaces with U+FFFD.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		r := hex4(b[2:])
		switch {
		case r < 0:
			return 0
		case !utf16.IsSurrogate(r):
			return 6
		case len(b) < 12 || b[6] != '\\' || b[7] != 'u':
			return 0
		case utf16.DecodeRune(r, hex4(b[8:])) == unicode.ReplacementChar:
			return 0
		}
		return 12
	}
	return 0
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnescaped appends the string contents raw, checked by str, to dst
// with their escapes decoded.
func appendUnescaped(dst, raw []byte) []byte {
	for {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			return append(dst, raw...)
		}
		dst, raw = append(dst, raw[:i]...), raw[i:]
		n := escapeLen(raw)
		switch c := raw[1]; c {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(raw[2:])
			if n == 12 {
				r = utf16.DecodeRune(r, hex4(raw[8:]))
			}
			dst = utf8.AppendRune(dst, r)
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
		raw = raw[n:]
	}
}

// commonValues are string values most bodies carry; stringValue returns
// these instead of allocating a copy.
var commonValues = func() []string {
	v := []string{"atr", "synthetic", "transmeta", "xscale"}
	for _, list := range [...][]core.Scheme{core.Schemes, core.ExtendedSchemes} {
		for _, sc := range list {
			v = append(v, sc.String())
		}
	}
	return v
}()

// stringValue decodes a string value into dst.
func (sc *scanner) stringValue(dst *string) bool {
	raw, escaped, ok := sc.str()
	if !ok {
		return false
	}
	if escaped {
		var buf [64]byte
		*dst = string(appendUnescaped(buf[:0], raw))
		return true
	}
	for _, v := range commonValues {
		if string(raw) == v {
			*dst = v
			return true
		}
	}
	*dst = string(raw)
	return true
}

// rawString copies a string value's token, quotes and escapes included,
// into dst.
func (sc *scanner) rawString(dst *json.RawMessage) bool {
	start := sc.i
	if _, _, ok := sc.str(); !ok {
		return false
	}
	*dst = append((*dst)[:0], sc.b[start:sc.i]...)
	return true
}

// number scans the longest JSON number at the cursor, reporting false
// where none starts (+1, .5) or one stops mid-grammar (1., 1e). A digit
// after a leading zero (01) is left for the object syntax to refuse.
func (sc *scanner) number() ([]byte, bool) {
	b, i := sc.b, sc.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[sc.i:i]
	sc.i = i
	return tok, true
}

// digits returns the index past the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// intValue decodes an int value into dst.
func (sc *scanner) intValue(dst *int) bool {
	tok, ok := sc.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	*dst = int(n)
	return err == nil && int64(*dst) == n
}

// floatValue decodes a float64 value into dst.
func (sc *scanner) floatValue(dst *float64) bool {
	tok, ok := sc.number()
	if !ok {
		return false
	}
	var err error
	*dst, err = strconv.ParseFloat(string(tok), 64)
	return err == nil
}

// boolValue decodes a boolean value into dst.
func (sc *scanner) boolValue(dst *bool) bool {
	for _, lit := range [...]string{"false", "true"} {
		if len(sc.b)-sc.i >= len(lit) && string(sc.b[sc.i:sc.i+len(lit)]) == lit {
			sc.i += len(lit)
			*dst = lit == "true"
			return true
		}
	}
	return false
}
