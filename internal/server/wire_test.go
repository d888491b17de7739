package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// parseWire runs one wire.go shape function over body on a pooled
// buffer, as decodeWire does after reading the body.
func parseWire(body []byte, parse func(*wireBuf) error) (*wireBuf, error) {
	wb := wireBufPool.Get().(*wireBuf)
	wb.b = append(wb.b[:0], body...)
	if err := parse(wb); err != nil {
		wb.release()
		return nil, err
	}
	return wb, nil
}

func sameFloats(what string, got vec.Vector, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

func sameRecord(what string, wb *wireBuf, got *wireRec, want *RecordJSON) error {
	if got.hasID != (want.ID != nil) || got.hasID && got.id != *want.ID {
		return fmt.Errorf("%s: id (%v, %d), encoding/json has %v", what, got.hasID, got.id, want.ID)
	}
	if !reflect.DeepEqual(got.attrs, want.Attrs) {
		return fmt.Errorf("%s: attrs %#v, encoding/json has %#v", what, got.attrs, want.Attrs)
	}
	return sameFloats(what+".vec", wb.vector(got.vec), want.Vec)
}

// acceptAlike is the first half of the oracle: both decoders take the
// body or both refuse it.
func acceptAlike(shape string, got, want error) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("%s: wire.go says %v, encoding/json says %v", shape, got, want)
	}
	return nil
}

// diffWire decodes body in all three shapes with wire.go and with
// json.Unmarshal over the whole body, and describes the first
// disagreement: in whether the body is accepted or, when it is, in any
// decoded value.
func diffWire(body []byte) error {
	var ing IngestRequest
	want := json.Unmarshal(body, &ing)
	wb, got := parseWire(body, (*wireBuf).parseIngest)
	if err := acceptAlike("ingest", got, want); err != nil {
		return err
	}
	if got == nil {
		defer wb.release()
		if !reflect.DeepEqual(wb.index, ing.Index) || wb.shards != ing.Shards {
			return fmt.Errorf("ingest: index %+v shards %d, encoding/json has %+v, %d", wb.index, wb.shards, ing.Index, ing.Shards)
		}
		if wb.nrecs != len(ing.Records) {
			return fmt.Errorf("ingest: %d records, encoding/json has %d", wb.nrecs, len(ing.Records))
		}
		for i := range ing.Records {
			if err := sameRecord(fmt.Sprintf("records[%d]", i), wb, &wb.recs[i], &ing.Records[i]); err != nil {
				return err
			}
		}
		// What the handlers are given is the same batch again.
		for i, r := range wb.storeRecords() {
			if id := ing.Records[i].ID; id == nil && r.ID != AutoID || id != nil && r.ID != *id {
				return fmt.Errorf("storeRecords[%d].ID = %d, encoding/json has %v", i, r.ID, id)
			}
			if err := sameFloats(fmt.Sprintf("storeRecords[%d].Vec", i), r.Vec, ing.Records[i].Vec); err != nil {
				return err
			}
		}
	}

	var rj RecordJSON
	want = json.Unmarshal(body, &rj)
	wb1, got := parseWire(body, (*wireBuf).parseRecord)
	if err := acceptAlike("record", got, want); err != nil {
		return err
	}
	if got == nil {
		defer wb1.release()
		if err := sameRecord("record", wb1, &wb1.recs[0], &rj); err != nil {
			return err
		}
	}

	var sr SearchRequest
	want = json.Unmarshal(body, &sr)
	wbs, got := parseWire(body, (*wireBuf).parseSearch)
	if err := acceptAlike("search", got, want); err != nil {
		return err
	}
	if got == nil {
		defer wbs.release()
		gotScalars := SearchRequest{K: wbs.k, Unsigned: wbs.unsigned, TimeoutMS: wbs.timeoutMS, Explain: wbs.explain}
		wantScalars := SearchRequest{K: sr.K, Unsigned: sr.Unsigned, TimeoutMS: sr.TimeoutMS, Explain: sr.Explain}
		if !reflect.DeepEqual(gotScalars, wantScalars) {
			return fmt.Errorf("search: scalars %+v, encoding/json has %+v", gotScalars, wantScalars)
		}
		if err := sameFloats("q", wbs.vector(wbs.q), sr.Q); err != nil {
			return err
		}
		if wbs.nrows != len(sr.Queries) {
			return fmt.Errorf("search: %d queries, encoding/json has %d", wbs.nrows, len(sr.Queries))
		}
		for i, q := range sr.Queries {
			if err := sameFloats(fmt.Sprintf("queries[%d]", i), wbs.vector(wbs.rows[i]), q); err != nil {
				return err
			}
		}
	}
	return nil
}

// wireTraps are bodies a hand-written decoder gets wrong; ok says
// whether the shape they are written for accepts them.
var wireTraps = []struct {
	shape, body string
	ok          bool
}{
	// Keys: exact, then Unicode case folding; escapes; invalid UTF-8.
	{"search", `{"Q":[1,0,0,0],"K":2,"UNSIGNED":true}`, true},
	{"ingest", `{"RECORDS":[{"ID":1,"VEC":[1,2],"Attrs":{"a":"b"}}],"Shards":3}`, true},
	{"ingest", `{"recordſ":[{"id":1,"vec":[1]}],"ſhardſ":2}`, true},
	{"search", `{"K":3,"q":[1]}`, true}, // Kelvin sign folds to k
	{"search", `{"q":[1,2],"timeout_ms":5}`, true},
	{"search", "{\"q\xff\":[1],\"q\":[2]}", true},
	{"record", `{"id":1,"vec":[1],"attrs":{"k\ud800":"v\udc00","é":"\/"}}`, true},
	{"record", "{\"attrs\":{\"\xff\":\"\xfe\"}}", true},
	{"search", `{"q ":[1],"":[2],"q":[3]}`, true},
	// Duplicate keys decode into what the earlier one left.
	{"ingest", `{"records":[{"id":1,"vec":[1]},{"id":2,"vec":[2]}],"records":[{"id":3,"vec":[3]}]}`, true},
	{"ingest", `{"records":[{"id":1,"vec":[1,2],"attrs":{"a":"b"}}],"records":[{"vec":[null,null,null]}]}`, true},
	{"ingest", `{"records":[{"id":1},{"id":2,"vec":[7]}],"records":[{"id":null}],"records":[null,{}]}`, true},
	{"ingest", `{"records":[{"id":1,"vec":[5]}],"records":[],"records":[null]}`, true},
	{"ingest", `{"records":[{"id":1,"vec":[5]}],"records":null,"records":[{}]}`, true},
	{"ingest", `{"shards":3,"shards":null,"index":{"kind":"alsh","k":4},"index":{"l":2},"index":null,"index":{"u":2}}`, true},
	{"record", `{"vec":[1,2,3],"vec":[9],"vec":[null,null,null,null,null]}`, true},
	{"record", `{"vec":[1,2],"vec":[],"vec":[null,null]}`, true},
	{"record", `{"vec":[1,2],"vec":null,"vec":[null]}`, true},
	{"record", `{"id":4,"id":5,"attrs":{"a":"1"},"attrs":{"b":"2"},"attrs":null,"attrs":{"c":"3"}}`, true},
	{"record", `{"vec":[1,2,3],"id":1,"vec":[4,5,6,7,8],"vec":[null]}`, true},
	{"search", `{"queries":[[1,2],[3,4]],"queries":[[null],null,[5]],"queries":[null,[null,null]]}`, true},
	{"search", `{"q":[1,2],"queries":[[3]],"q":[null,null,null],"k":2,"k":null,"explain":true,"explain":null}`, true},
	// null leaves a scalar unset and empties a slice.
	{"search", `{"queries":[null,[1,0,0,0]]}`, true},
	{"search", `{"q":null,"queries":null,"k":null,"unsigned":null,"rerank":null,"timeout_ms":null,"explain":null}`, true},
	{"search", `null`, true},
	{"ingest", ` null `, true},
	{"record", `{"id":null,"vec":[null,1.5,null],"attrs":null}`, true},
	{"ingest", `{"index":null,"shards":null,"records":[null,{"vec":[1]},null]}`, true},
	// Numbers: the JSON grammar, ParseInt for ints, no overflow.
	{"record", `{"id":1.0,"vec":[1]}`, false},
	{"record", `{"id":1e2,"vec":[1]}`, false},
	{"record", `{"id":-0,"vec":[-0,0e0,-0.0E-0,1E+2,5e-324,1e-999]}`, true},
	{"record", `{"id":9223372036854775807}`, true},
	{"record", `{"id":9223372036854775808}`, false},
	{"record", `{"vec":[1e999]}`, false},
	{"record", `{"vec":[-1.7976931348623159e308]}`, false},
	{"record", `{"vec":[1.7976931348623157e308,0.1234567890123456789012345678901234567890]}`, true},
	{"record", `{"vec":[01]}`, false},
	{"record", `{"vec":[.5]}`, false},
	{"record", `{"vec":[+1]}`, false},
	{"record", `{"vec":[1.]}`, false},
	{"record", `{"vec":[1e]}`, false},
	{"record", `{"vec":[-]}`, false},
	{"record", `{"vec":[0x10]}`, false},
	{"record", `{"vec":[1_0]}`, false},
	{"record", `{"vec":[NaN]}`, false},
	{"record", `{"vec":[Infinity]}`, false},
	{"search", `{"k":"3"}`, false},
	{"search", `{"k":3.5}`, false},
	{"search", `{"unsigned":1}`, false},
	{"search", `{"unsigned":"true"}`, false},
	// Types.
	{"record", `{"vec":["1"]}`, false},
	{"record", `{"vec":[[1]]}`, false},
	{"record", `{"vec":{"0":1}}`, false},
	{"record", `{"vec":1}`, false},
	{"record", `{"vec":"AQID"}`, false},
	{"record", `{"attrs":{"a":1}}`, false},
	{"record", `{"attrs":[]}`, false},
	{"ingest", `{"records":{}}`, false},
	{"ingest", `{"records":[[]]}`, false},
	{"ingest", `{"records":[1]}`, false},
	{"ingest", `{"index":"exact"}`, false},
	{"ingest", `{"index":{"kind":7}}`, false},
	{"ingest", `{"index":{"seed":-1}}`, false},
	{"search", `{"queries":[1]}`, false},
	{"search", `{"queries":[[[1]]]}`, false},
	{"search", `{"queries":{"0":[1]}}`, false},
	{"search", `[]`, false},
	{"search", `42`, false},
	{"search", `"q"`, false},
	{"search", `true`, false},
	// Syntax, also in what is skipped.
	{"search", ``, false},
	{"search", `   `, false},
	{"search", `{`, false},
	{"search", `{"q":[1,0,0,0]`, false},
	{"search", `{"q":[1,0,0,0],}`, false},
	{"search", `{"q":[1,]}`, false},
	{"search", `{"q":[,1]}`, false},
	{"search", `{"q":[1 2]}`, false},
	{"search", `{"q" [1]}`, false},
	{"search", `{q:[1]}`, false},
	{"search", `{"q":[1]}}`, false},
	{"search", `{"q":[1]} x`, false},
	{"search", `{"q":[1]}{"q":[2]}`, false},
	{"search", "{\"q\":[1]}\x00", false},
	{"search", "\ufeff{\"q\":[1]}", false},
	{"search", "{\"q\":[1]} \t\r\n", true},
	{"search", "\n{ \"q\" : [ 1 , 2 ] , \"k\" : 1 }", true},
	{"search", `{"q":[1],"x":{"a":[1,{"b":null}],"c":"é\n","d":-1.5e3,"e":[true,false]},"y":[]}`, true},
	{"search", `{"q":[1],"x":{"a":[1,{"b":nul}]}}`, false},
	{"search", `{"q":[1],"x":"\x"}`, false},
	{"search", `{"q":[1],"x":"\u12g4"}`, false},
	{"search", "{\"q\":[1],\"x\":\"a\tb\"}", false},
	{"search", `{"q":[1],"x":"unterminated}`, false},
	{"search", `{"q":[1],"x":[1,2}`, false},
	{"search", `{"q":[1],"x":{"a":1]}`, false},
	{"search", `{"q":[1],"x":{"a"}}`, false},
	{"search", `{"q":[1],"x":{1:2}}`, false},
	{"search", `{"q":[1],"x":[1,]}`, false},
	{"search", `{"q":[1],"x":{"a":1,}}`, false},
	{"search", `{"q":[1],"x":tru}`, false},
	{"search", `{"q":[1],"x":01}`, false},
	{"search", `{"q":[1],"x":}`, false},
	{"search", `{"q":[1],"x"}`, false},
	{"search", "{\"q\":[1],\"x\":\"\xff\xfe\"}", true},
}

// TestWireDecodeTraps holds the decoder to the trap list: each body is
// accepted or refused as listed — by encoding/json too, so the list
// cannot drift from the oracle — and decodes to the oracle's values in
// every shape.
func TestWireDecodeTraps(t *testing.T) {
	for _, c := range wireTraps {
		body := []byte(c.body)
		var err, want error
		var wb *wireBuf
		switch c.shape {
		case "ingest":
			want = json.Unmarshal(body, new(IngestRequest))
			wb, err = parseWire(body, (*wireBuf).parseIngest)
		case "record":
			want = json.Unmarshal(body, new(RecordJSON))
			wb, err = parseWire(body, (*wireBuf).parseRecord)
		case "search":
			want = json.Unmarshal(body, new(SearchRequest))
			wb, err = parseWire(body, (*wireBuf).parseSearch)
		}
		if (want == nil) != c.ok {
			t.Errorf("%s %q: the table says ok=%v, encoding/json says %v", c.shape, c.body, c.ok, want)
		}
		if (err == nil) != c.ok {
			t.Errorf("%s %q: error %v, want ok=%v", c.shape, c.body, err, c.ok)
		}
		if err == nil {
			wb.release()
		} else if !strings.HasPrefix(err.Error(), "offset ") {
			t.Errorf("%s %q: error %q does not carry the byte offset", c.shape, c.body, err)
		}
		if err := diffWire(body); err != nil {
			t.Errorf("%q: %v", c.body, err)
		}
	}
}

// TestWireDecodeDepth pins the nesting cap where encoding/json has it —
// 10 000 containers, counted from the top of the body — and that a body
// of nothing but '[' is refused, not recursed into.
func TestWireDecodeDepth(t *testing.T) {
	nest := func(prefix string, n int, suffix string) []byte {
		return []byte(prefix + strings.Repeat("[", n) + strings.Repeat("]", n) + suffix)
	}
	for _, c := range []struct {
		body []byte
		ok   bool
	}{
		{nest(`{"q":[1],"x":`, maxWireDepth-1, `}`), true},
		{nest(`{"q":[1],"x":`, maxWireDepth, `}`), false},
		{nest(`{"records":[{"vec":[1],"x":`, maxWireDepth-3, `}]}`), true},
		{nest(`{"records":[{"vec":[1],"x":`, maxWireDepth-2, `}]}`), false},
		{nest(`{"records":[{"attrs":{"a":"b"},"index":`, maxWireDepth-3, `}]}`), true},
		{bytes.Repeat([]byte("["), 4<<20), false},
		{append([]byte(`{"x":`), bytes.Repeat([]byte("["), 4<<20)...), false},
		{append([]byte(`{"x":`), bytes.Repeat([]byte(`{"a":`), 1<<20)...), false},
	} {
		label := fmt.Sprintf("%.30s… (%d bytes)", c.body, len(c.body))
		if err := json.Unmarshal(c.body, new(IngestRequest)); (err == nil) != c.ok {
			t.Errorf("%s: the table says ok=%v, encoding/json says %v", label, c.ok, err)
		}
		if err := diffWire(c.body); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// FuzzWireDecode is the decoder's contract: for arbitrary bytes, wire.go
// and json.Unmarshal of the whole body agree on accept or reject in each
// shape and, on accept, on every id, every float's bits, attrs, index,
// shards, k, unsigned, explain and timeout_ms. The buffers come
// from the pool, so state leaking from one body into the next shows up
// as a disagreement too.
func FuzzWireDecode(f *testing.F) {
	for _, c := range wireTraps {
		f.Add([]byte(c.body))
	}
	for _, s := range []string{
		// FuzzSearchHandler's seeds.
		`{"q":[1,0,0,0]}`,
		`{"q":[1,0,0,0],"k":3,"unsigned":true}`,
		`{"queries":[[1,0,0,0],[0,1,0,0]],"k":2}`,
		`{"q":[1,2]}`,
		`{"q":[]}`,
		`{"q":[1,0,0,0],"queries":[[1]]}`,
		`{"queries":[[1,0,0,0],[1,2]]}`,
		`{"q":[1,0,0,0],"k":-5}`,
		`{"q":[1,0,0,0],"k":999999}`,
		`{"q":[1e308,1e308,-1e308,1e308]}`,
		// Whole requests as clients write them.
		`{"index":{"kind":"exact","precision":"int8"},"shards":2,"records":[{"id":0,"vec":[0.1,0.9]},{"id":1,"vec":[0.8,0.2],"attrs":{"tag":"x"}}]}`,
		`{"records":[{"vec":[-0.46218354238070714,1.0309328859163227e-05]},{"vec":[3,4]}]}`,
		`{"id":7,"vec":[0.25,-0.5],"attrs":{"a":"b"}}`,
		`{"q":[0.5,0.25],"k":10,"rerank":true,"explain":true,"timeout_ms":250}`,
		// Numbers that leave the Eisel–Lemire path for strconv.ParseFloat:
		// long mantissas, extreme exponents, halfway cases, subnormals.
		`{"q":[12345678901234567890,1234567890123456789000000,0.12345678901234567891e-5]}`,
		`{"q":[9007199254740993,9007199254740993.0000000000000000001,9007199254740992.9999999999999999999]}`,
		`{"q":[1e-349,1e348,-1e-400,1e0000000000000000001,1e99999999999999999999]}`,
		`{"queries":[[2.2250738585072011e-308,4.9406564584124654e-324,2.4703282292062328e-324]]}`,
		`{"records":[{"vec":[1.7976931348623157e308,-0.000000000000000000000000000000000000001]}]}`,
		`{"vec":[1.7976931348623159e308]}`,
		// "rerank", a search field no longer: skipped whatever it holds.
		`{"q":[1,0],"rerank":"x","k":3,"rerank":{"a":[1,{"b":null}]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := diffWire(body); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	})
}

// wireFloat decodes tok on d the way every request float is decoded, as
// the one element of an array of numbers.
func wireFloat(d *wireDecoder, tok string) (float64, error) {
	*d = wireDecoder{b: append(append(append(d.b[:0], '['), tok...), ']'), flat: d.flat[:0]}
	var sp span
	d.floats(&sp)
	if err := d.end(); err != nil {
		return 0, err
	}
	return d.flat[sp.off], nil
}

// matchStrconv holds the wire conversion of tok to strconv.ParseFloat's:
// the same bits, or a refusal carrying the token's offset in "[tok]".
func matchStrconv(d *wireDecoder, tok string) error {
	got, err := wireFloat(d, tok)
	want, werr := strconv.ParseFloat(tok, 64)
	switch {
	case werr != nil:
		if wantMsg := fmt.Sprintf("offset 1: number %s overflows float64", tok); err == nil || err.Error() != wantMsg {
			return fmt.Errorf("%s: wire.go says (%v, %v), strconv says %v", tok, got, err, werr)
		}
	case err != nil:
		return fmt.Errorf("%s: wire.go says %v, strconv says %v", tok, err, want)
	case math.Float64bits(got) != math.Float64bits(want):
		return fmt.Errorf("%s: wire.go says %v (%#x), strconv says %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// TestParseNumberMatchesStrconv: every float a request carries converts
// to strconv.ParseFloat's bits, whether Eisel–Lemire decides it while
// the token is scanned or strconv converts it again, and a float that
// overflows is refused with the parent's message and offset.
func TestParseNumberMatchesStrconv(t *testing.T) {
	var d wireDecoder
	check := func(tok string) {
		t.Helper()
		if err := matchStrconv(&d, tok); err != nil {
			t.Error(err)
		}
	}
	// Every power of ten eiselLemire64 has, and one past each end.
	for e := pow10Min - 2; e <= pow10Max+2; e++ {
		for _, man := range []string{"1", "5", "9999999999999999999"} {
			check(fmt.Sprintf("%se%d", man, e))
			check(fmt.Sprintf("-0.%se%d", man, e+len(man)))
		}
	}
	// 19 significant digits fill the mantissa; a 20th is dropped, and only
	// a non-zero one sends the token to strconv.
	for _, digits := range []string{"1234567890123456789", "9999999999999999999", "1000000000000000000"} {
		for _, tail := range []string{"", "0", "000000", "1", "5", "000001", "9"} {
			for _, e := range []int{-330, -30, -19, 0, 5, 280} {
				check(fmt.Sprintf("%s%se%d", digits, tail, e))
				check(fmt.Sprintf("0.000%s%se%d", digits, tail, e))
				check(fmt.Sprintf("%s.%s%se%d", digits[:7], digits[7:], tail, e))
			}
		}
	}
	for _, tok := range []string{
		"0", "-0", "-0.0", "0e0", "-0E-0", "0.0e99999", "0." + strings.Repeat("0", 400),
		"0.000000000000000000000000000000001", "0." + strings.Repeat("0", 400) + "1",
		"1" + strings.Repeat("0", 400), "0.1", "0.3", "123.456", "100", "-100.5e-2",
		"9007199254740993", "9007199254740993.0000000000000000001", "9007199254740992.9999999999999999999",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9406564584124654e-324",
		"2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "-1e-400",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
		"1e0000000000000000001", "1e99999999999999999999", "1e-99999999999999999999", "1e308", "1e309",
		"0." + strings.Repeat("0", 20000) + "1e20300", "123" + strings.Repeat("0", 20000) + "e-20010",
		// The exponent after 'e' saturates past 5 digits, in strconv too,
		// so both read these two as 1.
		"0." + strings.Repeat("0", 10000) + "1e100010", "1" + strings.Repeat("0", 10000) + "e-1000000",
	} {
		check(tok)
	}
	// Halfway between two floats: a tie rounds to even, and any non-zero
	// digit after it — dropped past the 19th — rounds it up.
	check("73786976294838214656") // 2^66 + 2^13
	check("73786976294838214657")
	rng := xrand.New(38)
	for i := range 3000 {
		f := math.Abs(rng.Normal()) * math.Pow10(rng.Intn(40)-20)
		if i%2 == 0 {
			f = math.Float64frombits(rng.Uint64() % math.Float64bits(math.MaxFloat64)) // subnormals too
		}
		mid := new(big.Float).SetPrec(1200).SetFloat64(f)
		mid.Add(mid, new(big.Float).SetFloat64(math.Nextafter(f, math.Inf(1))))
		mant, exp, _ := strings.Cut(mid.SetMantExp(mid, -1).Text('e', 1100), "e")
		mant = strings.TrimRight(mant, "0")
		check(mant + "e" + exp)
		check(mant + "1e" + exp)
	}
	// Random values in every format strconv writes, at 0–25 digits: from
	// random bits (every exponent), the unit normal and the decades.
	n := 1 << 20
	if raceEnabled || testing.Short() {
		n = 1 << 15
	}
	buf := make([]byte, 0, 400)
	for i := range n {
		var f float64
		switch i % 3 {
		case 0:
			if f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
				f = 0
			}
		case 1:
			f = rng.Normal()
		case 2:
			f = rng.Float64() * math.Pow10(rng.Intn(60)-30)
		}
		buf = strconv.AppendFloat(buf[:0], f, "gfe"[i/3%3], i/9%26, 64)
		if err := matchStrconv(&d, string(buf)); err != nil {
			t.Fatal(err)
		}
	}
	// A float that overflows is a 400 on the wire.
	s := New(Config{})
	defer s.Close()
	const huge = "1.7976931348623159e308"
	body := `{"records":[{"vec":[1,` + huge + `]}]}`
	rec := serve(NewHandler(s), "POST", "/collections/c/vectors", body)
	if want := fmt.Sprintf("decoding body: offset %d: number %s overflows float64", strings.Index(body, huge), huge); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("overflowing float: %d %s, want 400 %q", rec.Code, rec.Body, want)
	}
}

// FuzzParseNumber: any bytes number() accepts as a token convert to
// strconv.ParseFloat's bits, or are refused where it returns an error.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1", "-1.5e-3", "9007199254740993", "12345678901234567890",
		"1234567890123456789000000001e-10", "0.000000000000000000000000012345678901234567891",
		"2.2250738585072011e-308", "4.9406564584124654e-324", "1.7976931348623159e308",
		"1e-349", "1e348", "1e0000000000000000001", "1e99999999999999999999",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := wireDecoder{b: data}
		tok, _ := scan.number()
		if scan.err != nil {
			return
		}
		var d wireDecoder
		if err := matchStrconv(&d, string(tok)); err != nil {
			t.Fatal(err)
		}
	})
}

// upsertBody is the benchmark's write body: n records of dimension d,
// ids from base, shortest-round-trip floats.
func upsertBody(n, d, base int, seed uint64) []byte {
	rng := xrand.New(seed)
	recs := make([]RecordJSON, n)
	for i := range recs {
		id := base + i
		recs[i] = RecordJSON{ID: &id, Vec: rng.NormalVec(d)}
	}
	body, err := json.Marshal(IngestRequest{Records: recs})
	if err != nil {
		panic(err)
	}
	return body
}

// TestWireDecodeAllocs pins what the decoder is for: a warm 64 × 64
// records decode allocates nothing (encoding/json: 539 allocations,
// 332 KB).
func TestWireDecodeAllocs(t *testing.T) {
	body := upsertBody(64, 64, 0, 9)
	wb := new(wireBuf)
	decode := func() {
		wb.reset()
		wb.b = append(wb.b, body...)
		if err := wb.parseIngest(); err != nil {
			t.Fatal(err)
		}
		if recs := wb.storeRecords(); len(recs) != 64 || len(recs[63].Vec) != 64 {
			t.Fatalf("decoded %d records", len(recs))
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
		t.Fatalf("warm 64 × 64 records decode: %v allocations, want 0", allocs)
	}
}

// BenchmarkWireDecode prices the decoder alone, on a warm buffer: the
// benchmark's 64-record write bodies at scan-heavy's d = 64,
// planted-alsh's and mixed-durable's 32 and small-hot's 16, and a
// 64 × 32 search batch. ns/float is what one request float costs to
// scan, check and convert.
func BenchmarkWireDecode(b *testing.B) {
	rng := xrand.New(5)
	batch := SearchRequest{K: 10}
	for range 64 {
		batch.Queries = append(batch.Queries, rng.NormalVec(32))
	}
	search, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		body   []byte
		parse  func(*wireBuf) error
		floats int
	}{
		{"upsert=64/d=64", upsertBody(64, 64, 0, 9), (*wireBuf).parseIngest, 64 * 64},
		{"upsert=64/d=32", upsertBody(64, 32, 0, 9), (*wireBuf).parseIngest, 64 * 32},
		{"upsert=64/d=16", upsertBody(64, 16, 0, 9), (*wireBuf).parseIngest, 64 * 16},
		{"search=64/d=32", search, (*wireBuf).parseSearch, 64 * 32},
	} {
		b.Run(bc.name, func(b *testing.B) {
			wb := new(wireBuf)
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for b.Loop() {
				wb.reset()
				wb.b = bc.body // parsing only reads it
				if err := bc.parse(wb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.floats), "ns/float")
		})
	}
}

// serve runs one request through h on the calling goroutine.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestRemovedRerankFieldIgnored: "rerank" is no longer a search field,
// so a body that still carries it answers as the body without it, on an
// f64 and on an int8 collection, whatever the field holds.
func TestRemovedRerankFieldIgnored(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: -1})
	defer s.Close()
	h := NewHandler(s)
	rng := xrand.New(44)
	rows := make([]store.Record, 300)
	for i := range rows {
		rows[i] = ballRecord(rng, i, 6)
	}
	q := jsonVec(rng.UnitVec(6))
	for _, spec := range []IndexSpec{{Kind: KindExact}, {Kind: KindExact, Precision: PrecisionI8}} {
		if _, _, err := s.Ingest(spec.precision(), &spec, 0, rows); err != nil {
			t.Fatal(err)
		}
		path := "/collections/" + spec.precision() + "/search"
		answer := func(body string) []Hit {
			t.Helper()
			rec := serve(h, http.MethodPost, path, body)
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body)
			}
			return resp.Matches
		}
		want := answer(`{"q":` + q + `,"k":3}`)
		for _, rerank := range []string{`true`, `false`, `"x"`, `null`} {
			body := `{"q":` + q + `,"k":3,"rerank":` + rerank + `}`
			if got := answer(body); len(want) != 3 || !sameHitsBitExact([][]Hit{got}, [][]Hit{want}) {
				t.Fatalf("%s %s answered %v, without the field %v", path, body, got, want)
			}
		}
	}
}

// TestOneJSONValuePerBody: on every route that decodes a body, bytes
// after the JSON value are a 400 — Decoder.Decode used to stop at the
// end of the first value, so `{"ids":[1]}{"ids":[2]} garbage` deleted
// record 1 and answered 200 — and trailing whitespace is not.
func TestOneJSONValuePerBody(t *testing.T) {
	s := New(Config{DefaultShards: 2, CacheCapacity: 16})
	defer s.Close()
	h := NewHandler(s)
	seed := func() {
		t.Helper()
		for _, name := range []string{"a", "b"} {
			body := `{"records":[{"id":1,"vec":[1,0,0,0]},{"id":2,"vec":[0,1,0,0]}]}`
			if rec := serve(h, "POST", "/collections/"+name+"/vectors", body); rec.Code != http.StatusOK {
				t.Fatalf("seeding %s: %d %s", name, rec.Code, rec.Body)
			}
		}
	}
	seed()
	for _, c := range []struct{ method, path, body string }{
		{"PUT", "/collections/a", `{"records":[{"id":10,"vec":[1,1,0,0]}]}`},
		{"PUT", "/collections/a/vectors/11", `{"vec":[1,1,1,0]}`},
		{"POST", "/collections/a/vectors", `{"records":[{"id":12,"vec":[1,1,1,1]}]}`},
		{"POST", "/collections/a/vectors/delete", `{"ids":[1]}`},
		{"POST", "/collections/a/search", `{"q":[1,0,0,0]}`},
		{"POST", "/collections/a/join/b", `{"s":0.5}`},
		{"POST", "/collections/a/join", `{"s":0.5}`},
		{"POST", "/join", `{"data":"a","queries":"b","s":0.5}`},
	} {
		for _, tail := range []string{` trailing`, `{"ids":[2]} garbage`, `]`, "\x00", `0`} {
			rec := serve(h, c.method, c.path, c.body+tail)
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s %s: error body %q: %v", c.method, c.path, rec.Body, err)
			}
			if rec.Code != http.StatusBadRequest || !strings.HasPrefix(e["error"], "decoding body: offset ") {
				t.Errorf("%s %s with %q after the value: %d %q, want a 400 \"decoding body: offset …\"",
					c.method, c.path, tail, rec.Code, e["error"])
			}
		}
		if col, _ := s.Collection("a"); col.Len() != 2 || col.Version() != 1 {
			t.Fatalf("%s %s: a refused body changed the collection (%d records, version %d)",
				c.method, c.path, col.Len(), col.Version())
		}
		if rec := serve(h, c.method, c.path, c.body+" \r\n\t"); rec.Code != http.StatusOK {
			t.Errorf("%s %s with trailing whitespace: %d %s", c.method, c.path, rec.Code, rec.Body)
		}
		s.Drop("a")
		s.Drop("b")
		seed()
	}
}

// poisonPooledBuffers overwrites every request buffer resting in the
// pool — arena with NaN, body bytes with '9' — and reports how many it
// found. Whatever still aliased one would now read garbage.
func poisonPooledBuffers() int {
	var found []*wireBuf
	for range 64 {
		wb := wireBufPool.Get().(*wireBuf)
		if cap(wb.b) == 0 {
			break // fresh from New: the pool is drained
		}
		found = append(found, wb)
	}
	for _, wb := range found {
		flat := wb.flat[:cap(wb.flat)]
		for i := range flat {
			flat[i] = math.NaN()
		}
		b := wb.b[:cap(wb.b)]
		for i := range b {
			b[i] = '9'
		}
		wireBufPool.Put(wb)
	}
	return len(found)
}

// TestRequestBuffersNotRetained: records and queries alias the pooled
// request buffer only while their handler runs. After every ingest,
// upsert and search the pooled buffers are overwritten; searches (cache
// on, so also what the cache keyed and kept) and the same searches after
// a WAL reopen must all still agree with a server that was fed the same
// data in process from slices nobody touches.
func TestRequestBuffersNotRetained(t *testing.T) {
	const n, d, nq = 96, 12, 6
	rng := xrand.New(31)
	rows := make([]store.Record, n+8)
	for i := range rows {
		rows[i] = ballRecord(rng, i, d)
		if i%7 == 0 {
			rows[i].Attrs = map[string]string{"tag": fmt.Sprint(i)}
		}
	}
	queries := make([]vec.Vector, nq)
	for i := range queries {
		queries[i] = rng.UnitVec(d)
	}
	recordsJSON := func(recs []store.Record) string {
		out := make([]RecordJSON, len(recs))
		for i, r := range recs {
			id := r.ID
			out[i] = RecordJSON{ID: &id, Vec: r.Vec, Attrs: r.Attrs}
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	poisoned := 0
	for _, spec := range []IndexSpec{
		{Kind: KindExact},
		{Kind: KindExact, Precision: PrecisionI8},
		{Kind: KindNormScan},
		{Kind: KindALSH},
	} {
		t.Run(spec.kind()+"-"+spec.precision(), func(t *testing.T) {
			cfg := durableConfig(t.TempDir())
			cfg.DefaultShards, cfg.CacheCapacity, cfg.Seed = 2, 64, 5
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			ref := New(Config{DefaultShards: 2, CacheCapacity: -1, Seed: 5})
			defer ref.Close()
			h := NewHandler(s)

			do := func(method, path, body string) []byte {
				t.Helper()
				rec := serve(h, method, path, body)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
				}
				poisoned += poisonPooledBuffers()
				return rec.Body.Bytes()
			}
			// check searches s over HTTP — each query alone, twice (the
			// second answer comes from the cache), then all as one batch —
			// against ref in process. The first search of query i is cached
			// when an exact answer from before killed was brought forward,
			// as it is unless killed holds one of its hits.
			var prev [][]Hit
			check := func(when string, killed ...int) {
				t.Helper()
				res, err := ref.SearchWithOpts(t.Context(), "c", queries, SearchOpts{K: 5})
				if err != nil {
					t.Fatal(err)
				}
				want := make([][]Hit, len(res))
				for i, r := range res {
					want[i] = r.Hits
				}
				got := make([][]Hit, len(queries))
				for round := range 2 {
					for i, q := range queries {
						var resp SearchResponse
						body := do("POST", "/collections/c/search", fmt.Sprintf(`{"q":%s,"k":5}`, jsonVec(q)))
						if err := json.Unmarshal(body, &resp); err != nil {
							t.Fatal(err)
						}
						kept := round == 0 && prev != nil && spec.kind() != KindALSH &&
							!slices.ContainsFunc(prev[i], func(h Hit) bool { return slices.Contains(killed, h.ID) })
						if want := map[bool]int{true: 1}[round == 1 || kept]; resp.Cached != want {
							t.Fatalf("%s: query %d round %d: cached = %d, want %d", when, i, round, resp.Cached, want)
						}
						got[i] = resp.Matches
					}
					if !sameHitsBitExact(got, want) {
						t.Fatalf("%s: single searches (round %d) differ from the in-process reference\n got %v\nwant %v", when, round, got, want)
					}
				}
				qs, _ := json.Marshal(queries)
				var resp SearchResponse
				if err := json.Unmarshal(do("POST", "/collections/c/search", fmt.Sprintf(`{"queries":%s,"k":5}`, qs)), &resp); err != nil {
					t.Fatal(err)
				}
				if !sameHitsBitExact(resp.Results, want) {
					t.Fatalf("%s: batch search differs from the in-process reference\n got %v\nwant %v", when, resp.Results, want)
				}
				prev = want
			}

			specJSON, _ := json.Marshal(spec)
			do("PUT", "/collections/c", fmt.Sprintf(`{"index":%s,"records":%s}`, specJSON, recordsJSON(rows[:n])))
			if _, _, err := ref.Ingest("c", &spec, 0, rows[:n]); err != nil {
				t.Fatal(err)
			}
			check("after ingest")

			// Replace the first rows with the spare ones' vectors, insert two
			// new ids, then upsert one record alone.
			batch := make([]store.Record, 8)
			for i := range batch {
				batch[i] = store.Record{ID: i * 5, Vec: rows[n+i].Vec, Attrs: rows[n+i].Attrs}
			}
			batch[6].ID, batch[7].ID = n+100, n+101
			do("POST", "/collections/c/vectors", fmt.Sprintf(`{"records":%s}`, recordsJSON(batch)))
			one := store.Record{ID: 3, Vec: rows[n+1].Vec}
			do("PUT", "/collections/c/vectors/3", fmt.Sprintf(`{"vec":%s}`, jsonVec(one.Vec)))
			if _, _, err := ref.Upsert("c", nil, 0, append(batch, one)); err != nil {
				t.Fatal(err)
			}
			check("after upserts", 0, 5, 10, 15, 20, 25, 3)

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			h, prev = NewHandler(s), nil // a new server, an empty cache
			c, _ := s.Collection("c")
			rc, _ := ref.Collection("c")
			got, want := c.records(), rc.records()
			if len(got) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || !reflect.DeepEqual(got[i].Attrs, want[i].Attrs) {
					t.Fatalf("recovered record %d: id %d attrs %v, want %d %v", i, got[i].ID, got[i].Attrs, want[i].ID, want[i].Attrs)
				}
				if err := sameFloats(fmt.Sprintf("recovered record %d", got[i].ID), got[i].Vec, want[i].Vec); err != nil {
					t.Fatal(err)
				}
			}
			check("after reopening the WAL")
		})
	}
	t.Logf("overwrote %d pooled buffers", poisoned)
	if poisoned == 0 {
		t.Fatal("never found a request buffer in the pool to overwrite")
	}
}

// TestDecodeStageIsTraced: body read + parse shows as a "decode" span in
// a request's trace and as ipsd_stage_seconds{stage="decode"} on ingest,
// upsert and search.
func TestDecodeStageIsTraced(t *testing.T) {
	s := New(Config{DefaultShards: 2, Tracing: true})
	defer s.Close()
	h := NewHandler(s)
	for _, c := range []struct{ method, path, body, route string }{
		{"PUT", "/collections/c", `{"records":[{"id":1,"vec":[1,0]},{"id":2,"vec":[0,1]}]}`, "ingest"},
		{"POST", "/collections/c/vectors", `{"records":[{"id":1,"vec":[1,1]}]}`, "upsert_batch"},
		{"PUT", "/collections/c/vectors/2", `{"vec":[2,1]}`, "upsert_one"},
		{"POST", "/collections/c/search", `{"q":[1,0]}`, "search"},
	} {
		if rec := serve(h, c.method, c.path, c.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.route, rec.Code, rec.Body)
		}
		_, recent := s.traces.Recent()
		if len(recent[c.route]) == 0 {
			t.Fatalf("%s: no trace recorded", c.route)
		}
		found := false
		for _, sp := range recent[c.route][0].Export().Spans {
			found = found || sp.Name == "decode"
		}
		if !found {
			t.Errorf("%s: trace has no decode span: %+v", c.route, recent[c.route][0].Export().Spans)
		}
	}
	metrics := serve(h, "GET", "/metrics", "").Body.String()
	// Three writes observed directly, one search through its trace.
	if want := `ipsd_stage_seconds_count{stage="decode",collection="c"} 4`; !strings.Contains(metrics, want) {
		t.Errorf("/metrics lacks %s", want)
	}
}

// TestRequestBufferBounds: a Content-Length header sizes the body buffer
// only up to the body cap, and a buffer one huge request grew is not
// kept in the pool.
func TestRequestBufferBounds(t *testing.T) {
	s := New(Config{MaxBodyBytes: 4 << 10})
	defer s.Close()
	r := httptest.NewRequest("POST", "/", strings.NewReader(`{"ids":[1]}`))
	r.ContentLength = 1 << 40
	wb, err := s.readBody(httptest.NewRecorder(), r)
	if err != nil || string(wb.b) != `{"ids":[1]}` {
		t.Fatalf("readBody: %q, %v", wb.b, err)
	}
	if cap(wb.b) > maxPooledJSONBuf { // a pooled buffer may be larger than the cap; none is larger than this
		t.Fatalf("a 1 TiB Content-Length under a 4 KiB cap sized the buffer to %d bytes", cap(wb.b))
	}
	wb.b = make([]byte, 0, 2*maxPooledJSONBuf)
	wb.release()
	huge := new(wireBuf)
	huge.flat = make([]float64, 0, maxPooledJSONBuf)
	huge.release()
	for range 64 {
		if wb := wireBufPool.Get().(*wireBuf); cap(wb.b) > maxPooledJSONBuf || 8*cap(wb.flat) > maxPooledJSONBuf {
			t.Fatalf("the pool kept a ballooned buffer (%d body bytes, %d floats)", cap(wb.b), cap(wb.flat))
		}
	}
}
