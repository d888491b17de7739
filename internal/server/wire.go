package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vec"
)

// The vector-bearing request bodies — records (ingest, batch upsert,
// single upsert) and search — are decoded here in one pass over the
// bytes instead of by reflection: the body is read whole into a pooled
// buffer, every float lands in one pooled flat []float64, and the
// records and queries handed on are sub-slices of it that live until
// the handler releases the buffer. A number is converted in the pass
// that validates it: number() gathers its first 19 significant digits
// and decimal exponent, and Eisel–Lemire (eisellemire.go) rounds them.
// strconv.ParseFloat converts the token again only where strconv itself
// would leave that fast path — a non-zero digit past the 19th, an
// exponent beyond ±348, a result too near halfway between two floats,
// subnormal or overflowing — so every value has its bits.
//
// encoding/json is the specification, and the tests hold this decoder
// to it (FuzzWireDecode): json.Unmarshal of the same bytes into
// IngestRequest / RecordJSON / SearchRequest accepts exactly the bodies
// this accepts and yields the same values. That includes what a hand
// parser is tempted to simplify away: keys match exactly, then by
// Unicode case folding; a null leaves a scalar untouched and empties a
// slice; and a duplicate key decodes into whatever its earlier
// occurrence left behind (see span). The cold sub-objects, "index" and
// "attrs", are cut out as raw spans and given to encoding/json itself.

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// span is one []float64 of the request, as offsets into wireDecoder.flat
// (which may move while the body is still being parsed). hw is the most
// elements the slice has held since it was last null or empty:
// encoding/json decodes a duplicate key into the slice its earlier
// occurrence left, elements past the new length included, so a null
// element there keeps the earlier value. Bodies without duplicate keys
// have hw == n.
type span struct{ off, n, hw int }

// wireDecoder is a pull tokenizer over one request body plus the arena
// its floats land in. The first failure sticks in err; after it every
// method returns at once and every loop over elem or field ends.
type wireDecoder struct {
	b     []byte
	i     int
	depth int // containers open at b[i]
	err   error
	flat  []float64
	stack []byte // skipValue's open containers, '{' or '['
}

func (d *wireDecoder) fail(off int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", off, fmt.Sprintf(format, args...))
	}
}

// unexpected fails on the byte at the cursor, which cannot start or
// continue what the caller wants.
func (d *wireDecoder) unexpected(want string) {
	if d.i >= len(d.b) {
		d.fail(d.i, "unexpected end of JSON input, want %s", want)
		return
	}
	d.fail(d.i, "invalid character %q, want %s", d.b[d.i], want)
}

func (d *wireDecoder) skipWS() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the byte at the cursor, 0 at the
// end of the body or after a failure (0 starts no JSON value).
func (d *wireDecoder) peek() byte {
	d.skipWS()
	if d.err != nil || d.i >= len(d.b) {
		return 0
	}
	return d.b[d.i]
}

// lit consumes the literal s.
func (d *wireDecoder) lit(s string) {
	if d.err != nil {
		return
	}
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		d.unexpected(s)
		return
	}
	d.i += len(s)
}

// open consumes the container opener the cursor is on.
func (d *wireDecoder) open() {
	d.i++
	d.depth++
}

// container consumes what a slice, struct or map field starts with: its
// opener ('[' or '{') — reporting opened — or null, which empties a
// slice and leaves a struct alone. Anything else is a type error.
func (d *wireDecoder) container(opener byte, want string) (opened, null bool) {
	switch d.peek() {
	case opener:
		d.open()
		return true, false
	case 'n':
		d.lit("null")
		return false, d.err == nil
	}
	d.unexpected(want)
	return false, false
}

// elem steps to the next element of the array whose '[' open consumed:
// true with the cursor on the element, false once ']' is consumed.
func (d *wireDecoder) elem(first bool) bool {
	c := d.peek()
	switch {
	case c == ']':
		d.i++
		d.depth--
		return false
	case first && c != 0:
		return true
	case c == ',' && !first:
		d.i++
		if c = d.peek(); c != 0 && c != ']' {
			return true
		}
		d.unexpected("a value")
		return false
	}
	d.unexpected("',' or ']'")
	return false
}

// field steps to the next member of the object whose '{' open consumed
// and returns which of names its key selects, with the cursor on the
// member's value; members that select none are validated and skipped.
// "" once '}' is consumed.
func (d *wireDecoder) field(first bool, names []string) string {
	for ; ; first = false {
		c := d.peek()
		switch {
		case c == '}':
			d.i++
			d.depth--
			return ""
		case first && c == '"':
		case c == ',' && !first:
			d.i++
			if d.peek() != '"' {
				d.unexpected("an object key")
				return ""
			}
		default:
			d.unexpected("',' or '}'")
			return ""
		}
		name := d.key(names)
		if name != "" || d.err != nil {
			return name
		}
		d.skipValue()
	}
}

// key consumes the object key the cursor is on and the ':' after it,
// and resolves the key against names the way encoding/json resolves
// struct fields: the unquoted key matches a name exactly or, failing
// that, under Unicode simple case folding ("VEC", "recordſ"). The names
// of one shape are distinct under folding, so the one folding pass here
// picks the field those two steps pick. "" if no name matches.
func (d *wireDecoder) key(names []string) string {
	start := d.i
	plain := d.str()
	if d.err != nil {
		return ""
	}
	k := d.b[start+1 : d.i-1]
	if d.peek() != ':' {
		d.unexpected("':' after object key")
		return ""
	}
	d.i++
	if !plain {
		// Escapes or non-ASCII bytes: unquote as encoding/json does
		// (invalid UTF-8 and lone surrogates become U+FFFD).
		var s string
		if err := json.Unmarshal(d.b[start:start+len(k)+2], &s); err != nil {
			d.fail(start, "object key: %v", err)
			return ""
		}
		k = []byte(s)
	}
	ks := string(k)
	for _, name := range names {
		if strings.EqualFold(ks, name) {
			return name
		}
	}
	return ""
}

// str consumes and validates the string literal the cursor is on. It
// reports whether the contents are plain: no escapes and ASCII only, so
// the raw bytes are the string.
func (d *wireDecoder) str() (plain bool) {
	b := d.b
	plain = true
	for i := d.i + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return plain
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 1; j <= 4; j++ {
					if i+j >= len(b) || !isHex(b[i+j]) {
						d.i = min(i+j, len(b))
						d.unexpected("four hex digits in \\u escape")
						return false
					}
				}
				i += 4
			default:
				d.i = i
				d.unexpected("a valid string escape")
				return false
			}
		case c < 0x20:
			d.i = i
			d.unexpected("no control character in a string")
			return false
		case c >= 0x80:
			plain = false
		}
	}
	d.i = len(b)
	d.unexpected("closing '\"'")
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// eightDigits is the value of w's eight bytes, read little-endian, as a
// decimal number, if they are all ASCII digits — in a few word
// operations instead of eight dependent multiply-adds (Lemire, as in
// fast_float's parse_eight_digits_unrolled).
func eightDigits(w uint64) (uint64, bool) {
	if w&0xF0F0F0F0F0F0F0F0|(w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
		return 0, false
	}
	w -= 0x3030303030303030
	w = w*10 + w>>8 // byte pairs: 10·d[2k] + d[2k+1] in the even bytes
	return (w&0x000000FF000000FF*(100+1000000<<32) + w>>16&0x000000FF000000FF*(1+10000<<32)) >> 32, true
}

// decimal is a number token's value as strconv reads it before
// converting: man × 10^exp10, negated if neg, where man holds the first
// 19 significant digits and trunc says a non-zero digit after them was
// dropped. The exponent after 'e' saturates past 5 digits as strconv's
// does, so exp10 is strconv's exponent even where it is not the token's.
type decimal struct {
	man   uint64
	exp10 int
	neg   bool
	trunc bool
}

// number consumes the number the cursor is on and returns its bytes and
// its decimal value, holding it to the JSON grammar — strconv alone
// would also take "+1", ".5", "0x1p-2", "1_0", "Inf" and leading zeros.
func (d *wireDecoder) number() (tok []byte, v decimal) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		v.neg = true
		i++
	}
	nd := 0  // significant digits in man
	run := i // where the digit run that must not be empty starts
	if i < len(b) && b[i] == '0' {
		i++ // a leading zero is the whole integer part and adds nothing
	} else {
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < 19 {
				v.man = v.man*10 + uint64(b[i]-'0')
				nd++
			} else {
				v.exp10++
				v.trunc = v.trunc || b[i] != '0'
			}
		}
	}
	if i > run && i < len(b) && b[i] == '.' {
		i++
		run = i
		if nd == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				v.exp10-- // a leading zero is not significant
			}
		}
		for ; nd <= 19-8 && len(b)-i >= 8; i += 8 {
			w, ok := eightDigits(binary.LittleEndian.Uint64(b[i:]))
			if !ok {
				break
			}
			v.man = v.man*1e8 + w
			nd += 8
			v.exp10 -= 8
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			if nd < 19 {
				v.man = v.man*10 + uint64(b[i]-'0')
				nd++
				v.exp10--
			} else {
				v.trunc = v.trunc || b[i] != '0'
			}
		}
	}
	if i > run && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		run = i
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		v.exp10 += e
	}
	tok = b[d.i:i]
	d.i = i
	if i == run {
		d.unexpected("a digit")
		return nil, decimal{}
	}
	return tok, v
}

// skipValue validates and consumes the value the cursor is on, whatever
// it is, without recursion: a body of nothing but '[' must end in an
// error at maxWireDepth, not in a stack overflow.
func (d *wireDecoder) skipValue() {
	d.stack = d.stack[:0]
	for d.err == nil {
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if d.depth+len(d.stack) >= maxWireDepth {
				d.fail(d.i, "exceeded max depth")
				return
			}
			d.stack = append(d.stack, c)
			d.i++
			if next := d.peek(); next == c+2 { // '}' is '{'+2, ']' is '['+2
				break // empty container: complete below
			} else if c == '{' {
				d.skipKey()
			}
			continue
		case c == '"':
			d.str()
		case c == '-' || isDigit(c):
			d.number()
		case c == 't':
			d.lit("true")
		case c == 'f':
			d.lit("false")
		case c == 'n':
			d.lit("null")
		default:
			d.unexpected("a value")
		}
		// A value is complete: close every container it ends, then step
		// to the next value of the innermost one still open.
		for d.err == nil {
			if len(d.stack) == 0 {
				return
			}
			top := d.stack[len(d.stack)-1]
			c := d.peek()
			if c == top+2 {
				d.i++
				d.stack = d.stack[:len(d.stack)-1]
				continue
			}
			if c != ',' {
				d.unexpected("',' or the container's close")
				return
			}
			d.i++
			if top == '{' {
				d.skipKey()
			}
			break
		}
	}
}

// skipKey consumes an object key and its ':' inside skipValue.
func (d *wireDecoder) skipKey() {
	if d.peek() != '"' {
		d.unexpected("an object key")
		return
	}
	d.str()
	if d.peek() != ':' {
		d.unexpected("':' after object key")
		return
	}
	d.i++
}

// rawValue validates the value the cursor is on and returns its bytes.
func (d *wireDecoder) rawValue() []byte {
	d.skipWS()
	start := d.i
	d.skipValue()
	if d.err != nil {
		return nil
	}
	return d.b[start:d.i]
}

// std decodes the value the cursor is on into v with encoding/json — v
// keeping what an earlier duplicate of the key left in it, as it would
// inside a whole-body Unmarshal. For the small cold sub-objects only.
func (d *wireDecoder) std(v any) {
	raw := d.rawValue()
	if d.err != nil {
		return
	}
	if err := json.Unmarshal(raw, v); err != nil {
		off, _ := jsonErrorOffset(err)
		d.fail(d.i-len(raw)+int(off), "%v", err)
	}
}

// end requires that nothing but whitespace follows the top-level value.
func (d *wireDecoder) end() error {
	if d.peek(); d.err == nil && d.i < len(d.b) {
		d.fail(d.i, "invalid character %q after top-level value", d.b[d.i])
	}
	return d.err
}

// intValue decodes a JSON value into an int field: null leaves it, a
// number must be what strconv.ParseInt takes (so 1.0 and 1e2 are
// errors, as in encoding/json), anything else is a type error.
func (d *wireDecoder) intValue(v *int) {
	switch c := d.peek(); {
	case c == 'n':
		d.lit("null")
	case c == '-' || isDigit(c):
		start := d.i
		tok, _ := d.number()
		if d.err != nil {
			return
		}
		n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			d.fail(start, "number %s is not an int", tok)
			return
		}
		*v = int(n)
	default:
		d.unexpected("an integer")
	}
}

func (d *wireDecoder) boolValue(v *bool) {
	switch d.peek() {
	case 'n':
		d.lit("null")
	case 't':
		d.lit("true")
		*v = true
	case 'f':
		d.lit("false")
		*v = false
	default:
		d.unexpected("true or false")
	}
}

// floats decodes a JSON value into the []float64 field sp stands for:
// null empties it, an array's numbers overwrite it element by element
// (a null element keeps what the slot held, zero in a fresh slice) and
// its length becomes the array's.
func (d *wireDecoder) floats(sp *span) {
	opened, null := d.container('[', "an array of numbers")
	if null {
		*sp = span{}
	}
	if !opened {
		return
	}
	n := 0
	for first := true; d.elem(first); first = false {
		if n == sp.hw {
			if sp.off+sp.hw != len(d.flat) {
				// Not at the arena's end (fresh, or a duplicate key's longer
				// second array): move what the slice holds there.
				off := len(d.flat)
				d.flat = append(d.flat, d.flat[sp.off:sp.off+sp.hw]...)
				sp.off = off
			}
			d.flat = append(d.flat, 0)
			sp.hw++
		}
		switch c := d.b[d.i]; {
		case c == '-' || isDigit(c):
			start := d.i
			tok, v := d.number()
			if d.err != nil {
				return
			}
			// Past a dropped non-zero digit, or where Eisel–Lemire cannot
			// decide, strconv converts the token again, as it would itself.
			f, ok := eiselLemire64(v.man, v.exp10, v.neg)
			if !ok || v.trunc {
				var err error
				// The conversion does not escape: no allocation up to 32 bytes.
				if f, err = strconv.ParseFloat(string(tok), 64); err != nil {
					d.fail(start, "number %s overflows float64", tok)
					return
				}
			}
			d.flat[sp.off+n] = f
		case c == 'n':
			d.lit("null")
		default:
			d.unexpected("a number")
			return
		}
		n++
	}
	sp.n = n
	if n == 0 {
		*sp = span{} // an empty array is a fresh slice
	}
}

// vector is sp's slice of the arena. Call only once parsing is over.
func (d *wireDecoder) vector(sp span) vec.Vector {
	return d.flat[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// wireRec is one decoded RecordJSON.
type wireRec struct {
	id    int
	hasID bool
	vec   span
	attrs map[string]string
}

// wireBuf is the pooled state of one request body: the bytes, the
// decoder and its float arena, and the decoded request in either shape.
// Everything handed out of it — records, queries — aliases it and is
// dead after release.
type wireBuf struct {
	wireDecoder
	took time.Duration // body read + parse

	// Records shape. recs[:nrecs] is the batch; recs beyond it are what a
	// duplicate "records" key's earlier, longer array left (see span).
	index  *IndexSpec
	shards int
	recs   []wireRec
	nrecs  int
	out    []store.Record

	// Search shape; rows[:nrows] is "queries", as recs is "records".
	q         span
	rows      []span
	nrows     int
	k         int
	timeoutMS int
	unsigned  bool
	explain   bool
	qs        []vec.Vector
}

var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// release returns the buffer to the pool, unless one huge request made
// it balloon (writeJSON's rule, and its bound).
func (wb *wireBuf) release() {
	retained := cap(wb.b) + 8*cap(wb.flat) + cap(wb.stack) + // bytes per element, roughly
		48*cap(wb.recs) + 40*cap(wb.out) + 24*(cap(wb.rows)+cap(wb.qs))
	if retained <= maxPooledJSONBuf {
		wb.reset()
		wireBufPool.Put(wb)
	}
}

// reset empties the buffer for the next body, keeping its capacity.
func (wb *wireBuf) reset() {
	clear(wb.recs) // attrs maps: not to be kept alive through the pool
	clear(wb.out)
	*wb = wireBuf{
		wireDecoder: wireDecoder{b: wb.b[:0], flat: wb.flat[:0], stack: wb.stack[:0]},
		recs:        wb.recs[:0], out: wb.out[:0], rows: wb.rows[:0], qs: wb.qs[:0],
	}
}

var (
	ingestFields = []string{"index", "shards", "records"}
	recordFields = []string{"id", "vec", "attrs"}
	searchFields = []string{"q", "queries", "k", "unsigned", "timeout_ms", "explain"}
)

// parseIngest decodes wb's body as an IngestRequest (PUT
// /collections/{name}, POST …/vectors) into the records shape.
func (wb *wireBuf) parseIngest() error {
	if opened, _ := wb.container('{', "an object"); opened {
		for f := wb.field(true, ingestFields); f != ""; f = wb.field(false, ingestFields) {
			switch f {
			case "index":
				wb.std(&wb.index)
			case "shards":
				wb.intValue(&wb.shards)
			case "records":
				wb.records()
			}
		}
	}
	return wb.end()
}

// parseRecord decodes wb's body as one RecordJSON (PUT …/vectors/{id})
// into a records shape of exactly one record.
func (wb *wireBuf) parseRecord() error {
	wb.recs = append(wb.recs[:0], wireRec{})
	wb.nrecs = 1
	wb.record(&wb.recs[0])
	return wb.end()
}

// records decodes the "records" value: as floats, with records for
// elements — a null element leaves the slot's record as it was.
func (wb *wireBuf) records() {
	opened, null := wb.container('[', "an array of records")
	if null {
		clear(wb.recs)
		wb.recs, wb.nrecs = wb.recs[:0], 0
	}
	if !opened {
		return
	}
	n := 0
	for first := true; wb.elem(first); first = false {
		if n == len(wb.recs) {
			wb.recs = append(wb.recs, wireRec{})
		}
		wb.record(&wb.recs[n])
		n++
	}
	wb.nrecs = n
	if n == 0 {
		clear(wb.recs)
		wb.recs = wb.recs[:0]
	}
}

func (wb *wireBuf) record(rec *wireRec) {
	if opened, _ := wb.container('{', "a record object"); !opened {
		return
	}
	for f := wb.field(true, recordFields); f != ""; f = wb.field(false, recordFields) {
		switch f {
		case "id":
			if wb.peek() == 'n' {
				wb.lit("null")
				rec.hasID = false
			} else {
				wb.intValue(&rec.id)
				rec.hasID = true
			}
		case "vec":
			wb.floats(&rec.vec)
		case "attrs":
			wb.std(&rec.attrs)
		}
	}
}

// storeRecords is the batch as the store's records, vectors aliasing
// the arena; a record the body gave no id carries AutoID.
func (wb *wireBuf) storeRecords() []store.Record {
	wb.out = wb.out[:0]
	for i := range wb.recs[:wb.nrecs] {
		rec := &wb.recs[i]
		id := AutoID
		if rec.hasID {
			id = rec.id
		}
		wb.out = append(wb.out, store.Record{ID: id, Vec: wb.vector(rec.vec), Attrs: rec.attrs})
	}
	return wb.out
}

// parseSearch decodes wb's body as a SearchRequest into the search
// shape.
func (wb *wireBuf) parseSearch() error {
	if opened, _ := wb.container('{', "an object"); opened {
		for f := wb.field(true, searchFields); f != ""; f = wb.field(false, searchFields) {
			switch f {
			case "q":
				wb.floats(&wb.q)
			case "queries":
				wb.queries()
			case "k":
				wb.intValue(&wb.k)
			case "unsigned":
				wb.boolValue(&wb.unsigned)
			case "timeout_ms":
				wb.intValue(&wb.timeoutMS)
			case "explain":
				wb.boolValue(&wb.explain)
			}
		}
	}
	return wb.end()
}

// queries decodes the "queries" value, a [][]float64: as records, with
// float slices for elements — there a null element empties the row.
func (wb *wireBuf) queries() {
	opened, null := wb.container('[', "an array of queries")
	if null {
		wb.rows, wb.nrows = wb.rows[:0], 0
	}
	if !opened {
		return
	}
	n := 0
	for first := true; wb.elem(first); first = false {
		if n == len(wb.rows) {
			wb.rows = append(wb.rows, span{})
		}
		wb.floats(&wb.rows[n])
		n++
	}
	wb.nrows = n
	if n == 0 {
		wb.rows = wb.rows[:0]
	}
}

// queryVectors is the request's queries, aliasing the arena: "q" alone
// (single) or the rows of "queries".
func (wb *wireBuf) queryVectors() (qs []vec.Vector, single bool, err error) {
	single = wb.q.n > 0
	if single == (wb.nrows > 0) {
		return nil, false, fmt.Errorf("set exactly one of \"q\" and \"queries\"")
	}
	wb.qs = wb.qs[:0]
	if single {
		wb.qs = append(wb.qs, wb.vector(wb.q))
	}
	for _, row := range wb.rows[:wb.nrows] {
		wb.qs = append(wb.qs, wb.vector(row))
	}
	return wb.qs, single, nil
}

// maxBody is the effective request-body cap: Config.MaxBodyBytes, 32 MiB
// when that is zero, none when it is negative.
func (s *Server) maxBody() int64 {
	if s.cfg.MaxBodyBytes == 0 {
		return defaultMaxBodyBytes
	}
	return s.cfg.MaxBodyBytes
}

// readBody reads r's body whole into a pooled wireBuf — the one place a
// request body is read, so the one place it is capped: past maxBody the
// read fails with *http.MaxBytesError, which bodyError answers with a
// 413. Content-Length pre-sizes the buffer, but only up to the cap (up
// to the default cap when there is none): a header is not yet a body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*wireBuf, error) {
	body := r.Body
	limit := s.maxBody()
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	} else {
		limit = defaultMaxBodyBytes
	}
	wb := wireBufPool.Get().(*wireBuf)
	b := wb.b[:0]
	if want := int(min(r.ContentLength, limit)) + 1; want > cap(b) {
		b = make([]byte, 0, want) // +1: room for the read that reports EOF
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			wb.b = b
			if err == io.EOF {
				return wb, nil
			}
			wb.release()
			return nil, err
		}
	}
}

// decodeWire reads and parses a vector-bearing body under a "decode"
// span. The caller releases the returned buffer once nothing it handed
// out is in use.
func (s *Server) decodeWire(w http.ResponseWriter, r *http.Request, parse func(*wireBuf) error) (*wireBuf, error) {
	sp := trace.FromContext(r.Context()).StartSpan("decode")
	defer sp.End()
	start := time.Now()
	wb, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	if err := parse(wb); err != nil {
		wb.release()
		return nil, err
	}
	wb.took = time.Since(start)
	return wb, nil
}

// decodeBody decodes a small vector-free body (delete, the join routes)
// into v by reflection. As on the wire routes, the body is exactly one
// JSON value: json.Unmarshal, unlike Decoder.Decode, rejects anything
// but whitespace after it.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	wb, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	defer wb.release()
	if err := json.Unmarshal(wb.b, v); err != nil {
		if off, ok := jsonErrorOffset(err); ok {
			return fmt.Errorf("offset %d: %w", off, err)
		}
		return err
	}
	return nil
}

// jsonErrorOffset is the byte offset an encoding/json error carries.
func jsonErrorOffset(err error) (int64, bool) {
	var se *json.SyntaxError
	var te *json.UnmarshalTypeError
	switch {
	case errors.As(err, &se):
		return se.Offset, true
	case errors.As(err, &te):
		return te.Offset, true
	}
	return 0, false
}
