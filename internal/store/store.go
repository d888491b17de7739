// Package store defines Record, the unit the serving layers move: the
// server ingests records, and the persistence layer logs and
// checkpoints them.
package store

import "repro/internal/vec"

// Record is one tuple: an id, a vector payload, and optional
// string attributes.
type Record struct {
	ID    int
	Vec   vec.Vector
	Attrs map[string]string
}
