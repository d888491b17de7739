package join

import (
	"strings"
	"testing"

	"repro/internal/vec"
)

func TestSpecValidate(t *testing.T) {
	ok := Spec{Variant: Signed, S: 0.5, C: 0.5}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Variant: Variant(9), S: 1, C: 0.5},
		{Variant: Signed, S: 0, C: 0.5},
		{Variant: Signed, S: 1, C: 0},
		{Variant: Signed, S: 1, C: 1.5},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	if ok.CS() != 0.25 {
		t.Fatalf("CS = %v", ok.CS())
	}
}

func TestVariantString(t *testing.T) {
	if Signed.String() != "signed" || Unsigned.String() != "unsigned" {
		t.Fatal("strings")
	}
	if !strings.Contains(Variant(7).String(), "7") {
		t.Fatal("unknown variant string")
	}
}

func TestCheckGuaranteeCatchesMissing(t *testing.T) {
	P := []vec.Vector{{1, 0}}
	Q := []vec.Vector{{1, 0}}
	sp := Spec{Variant: Signed, S: 0.5, C: 0.5}
	if err := CheckGuarantee(P, Q, Result{}, sp); err == nil {
		t.Fatal("missing pair must be caught")
	}
}

func TestCheckGuaranteeCatchesBadPair(t *testing.T) {
	P := []vec.Vector{{1, 0}, {0, 1}}
	Q := []vec.Vector{{1, 0}}
	sp := Spec{Variant: Signed, S: 0.5, C: 0.5}
	// Claiming the orthogonal vector satisfies the query is a lie.
	res := Result{Matches: []Match{{QIdx: 0, PIdx: 1, Value: 0.9}}}
	if err := CheckGuarantee(P, Q, res, sp); err == nil {
		t.Fatal("bad pair must be caught")
	}
	oob := Result{Matches: []Match{{QIdx: 0, PIdx: 5}}}
	if err := CheckGuarantee(P, Q, oob, sp); err == nil {
		t.Fatal("out-of-range pair must be caught")
	}
}
