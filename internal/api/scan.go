package api

import (
	"bytes"
	"strconv"
)

// scanRequest is the fast path of DecodeSolveRequest. encoding/json
// spends most of a request's decode time reflecting over the [][2]int
// edge list, so scanRequest reads the subset of the wire schema that
// clients send straight from the bytes:
//
//   - one top-level object; keys in the exact case of the struct tags,
//     each at most once per object;
//   - v, k, t, seed, timeout_ms, graph.n, anneal.shots and
//     anneal.deltat as plain integers (no fraction, no exponent) that
//     fit their field;
//   - stream and no_cache as true or false;
//   - algo as printable ASCII without escapes;
//   - anneal.r as any JSON number, parsed as encoding/json parses it;
//   - graph.edges as an array of arrays of exactly two integers;
//   - JSON whitespace between tokens and after the object.
//
// On anything else it returns nil, and DecodeSolveRequest hands the same
// bytes to encoding/json: case-folded or repeated keys, null, exponents
// or fractions on integers, out-of-range values, escapes, non-ASCII
// text, edges of other lengths, unknown keys and every syntax error. The
// scanner has no errors of its own; it returns the request
// encoding/json would return, or declines.
func scanRequest(data []byte) *SolveRequest {
	s := scanner{buf: data}
	req := new(SolveRequest)
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "v":
			return s.intField(&req.V)
		case "algo":
			algo, ok := s.str()
			req.Algo = string(algo)
			return ok
		case "k":
			return s.intField(&req.K)
		case "t":
			return s.intField(&req.T)
		case "graph":
			return s.graph(&req.Graph)
		case "seed":
			return s.int64Field(&req.Seed)
		case "timeout_ms":
			return s.int64Field(&req.TimeoutMS)
		case "stream":
			return s.boolField(&req.Stream)
		case "no_cache":
			return s.boolField(&req.NoCache)
		case "anneal":
			req.Anneal = new(AnnealParams)
			return s.anneal(req.Anneal)
		}
		return false
	})
	s.space()
	if !ok || s.pos != len(data) {
		return nil
	}
	return req
}

// scanner is a cursor over one request body.
type scanner struct {
	buf []byte
	pos int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next. Clients send
// compact JSON, so c is tried before the whitespace loop (about 15 % of
// a decode).
func (s *scanner) next(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	s.space()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// maxKeys is the most keys any object of the schema has (SolveRequest's
// ten), so a longer object must repeat a key or carry an unknown one.
const maxKeys = 10

// object scans one object, handing each key to member, which reads the
// value and reports whether it is in the subset. A repeated key
// declines: encoding/json would let its last value win, merging repeated
// objects.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen [maxKeys][]byte
	for n := 0; ; n++ {
		key, ok := s.str()
		if !ok || n == maxKeys {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !s.next(':') || !member(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// str scans a string of printable ASCII without escapes and returns its
// contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for i := s.pos; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			str := s.buf[s.pos:i]
			s.pos = i + 1
			return str, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// boolField scans true or false into a bool field.
func (s *scanner) boolField(dst *bool) bool {
	s.space()
	switch rest := s.buf[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		s.pos += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		s.pos += len("false")
	default:
		return false
	}
	return true
}

// number scans one JSON number and returns its literal, or nil if the
// bytes are not one. A byte after the literal is left to the caller's
// delimiter check, so "01" and "1x" decline there.
func (s *scanner) number() []byte {
	s.space()
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil
		}
		i = j
	}
	lit := b[s.pos:i]
	s.pos = i
	return lit
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer scans a plain JSON integer (no fraction, no exponent, no
// leading zero) that fits a signed integer of the given bit size.
func (s *scanner) integer(bitSize int) (int64, bool) {
	s.space()
	b, i := s.buf, s.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	switch n := i - start; {
	case n == 0 || n > 1 && b[start] == '0':
		return 0, false
	case n > 19: // without a leading zero, at least 10^19: past any int64
		return 0, false
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, false
	}
	limit := uint64(1) << (bitSize - 1)
	v := int64(u)
	if neg {
		limit, v = limit+1, -v
	}
	if u >= limit {
		return 0, false
	}
	s.pos = i
	return v, true
}

// intField scans an integer into an int field.
func (s *scanner) intField(dst *int) bool {
	v, ok := s.integer(strconv.IntSize)
	*dst = int(v)
	return ok
}

// int64Field scans an integer into an int64 field.
func (s *scanner) int64Field(dst *int64) bool {
	v, ok := s.integer(64)
	*dst = v
	return ok
}

// floatField scans any JSON number into a float64 field, parsed as
// encoding/json parses it; out-of-range values decline.
func (s *scanner) floatField(dst *float64) bool {
	lit := s.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// graph scans the graph object.
func (s *scanner) graph(g *Graph) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "n":
			return s.intField(&g.N)
		case "edges":
			return s.edges(&g.Edges)
		}
		return false
	})
}

// edges scans the edge list. [] gives an empty, non-nil slice, as
// encoding/json does; an edge of any length but two declines (json would
// zero-fill a short one and drop the rest of a long one).
func (s *scanner) edges(dst *[][2]int) bool {
	if !s.next('[') {
		return false
	}
	// Every edge opens with '[' and takes at least six bytes ("[1,2],",
	// or "[1,2]" and the closing "]}}"), so this capacity always holds
	// the list and is never more than the body could fill.
	rest := s.buf[s.pos:]
	edges := make([][2]int, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/6))
	if !s.next(']') {
		for {
			var e [2]int
			if !s.next('[') || !s.intField(&e[0]) || !s.next(',') || !s.intField(&e[1]) || !s.next(']') {
				return false
			}
			edges = append(edges, e)
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	*dst = edges
	return true
}

// anneal scans the anneal object.
func (s *scanner) anneal(a *AnnealParams) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "r":
			return s.floatField(&a.R)
		case "shots":
			return s.intField(&a.Shots)
		case "deltat":
			return s.intField(&a.DeltaT)
		}
		return false
	})
}
