package main

import (
	"encoding/json"
	"math"
	"net/http"
)

// canary is the benchmark's host-speed reference: ten exchanges with a
// tiny service of the benchmark's own — its own net/http server on its
// own loopback connection, a handler that decodes a JSON body, fills a
// small map of slices and encodes a JSON reply. None of it is the
// program under test, all of it is the kind of work a request is made
// of: kernel loopback, net/http, JSON, small allocations.
//
// On a shared host the neighbours slow such work by up to 2× for
// seconds to minutes, and every ipsd request slows with it; a tight
// arithmetic loop barely notices (measured: across twelve runs that
// crossed such a phase, raw request floors spread 24–62 % between the
// quartiles, the same floors over a scan loop's 7–29 %, over probes
// shaped like this one 2–13 %; see CALIBRATION.md). The canary is sampled wherever no request is in
// flight; its floor over a stretch of the run says how fast the host
// was then, its median over its floor how unsteady.
type canary struct {
	e       *endpoint
	req     []byte
	samples []float64 // seconds per sample of canaryExchanges
}

const canaryExchanges = 10

// canaryNominal is one canary sample on the builder's box when it is
// quiet, in seconds. Gated timings are reported at this speed: a time
// divided by hostFactor is what it would have been on that box.
const canaryNominal = 0.66e-3

func newCanary() (*canary, error) {
	q := make([]float64, 64)
	for i := range q {
		q[i] = math.Sin(float64(i + 1))
	}
	e, err := listen(http.HandlerFunc(canaryHandler))
	if err != nil {
		return nil, err
	}
	return &canary{e: e, req: request("POST", "/", searchBody(q, false, false))}, nil
}

func canaryHandler(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Q []float64 `json:"q"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Q) == 0 {
		http.Error(w, "bad canary body", http.StatusBadRequest)
		return
	}
	groups := make(map[int][]float64)
	for i := 0; i < 400; i++ {
		k := i * 7919 % 150
		groups[k] = append(groups[k], body.Q[i%len(body.Q)])
	}
	type hit struct {
		ID    int     `json:"id"`
		Score float64 `json:"score"`
	}
	out := make([]hit, topK)
	for i := range out {
		out[i] = hit{i, groups[i][0]}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (c *canary) close() { c.e.close() }

// sample times canaryExchanges exchanges. A failed exchange leaves no
// sample; with no samples at all the host factor is 1.
func (c *canary) sample() {
	var total float64
	for i := 0; i < canaryExchanges; i++ {
		status, _, d, err := c.e.do(c.req)
		if err != nil || status != http.StatusOK {
			return
		}
		total += d.Seconds()
	}
	c.samples = append(c.samples, total)
}

// mark returns the current sample count, to slice the samples of one
// stretch of the run out later.
func (c *canary) mark() int { return len(c.samples) }

// hostFactor is how much slower than nominal the host ran while the
// samples were taken: the mean of their fastest quarter over the
// nominal sample.
func hostFactor(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	s := sorted(samples)
	return mean(s[:max(len(s)/4, 1)]) / canaryNominal
}

// noise is p50 over the floor of the canary samples.
func (c *canary) noise() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	return median(c.samples) / minOf(c.samples)
}
