package parallelize

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/phase2"
	"repro/internal/property"
)

// FuncCache is the per-function unit cache Run consults when
// Options.Reuse is set (implemented by incr.Store). The analysis tier
// holds Pass-1 results keyed by the function's content-addressed unit
// key; the plan tier holds a function's Pass-2 plan map (FuncPlan.Loops)
// keyed by the unit key plus a digest of the merged property database
// (Pass 2 reads facts other functions contribute, so its key must cover
// them). Both tiers store what Run computed and return it as stored: the
// values are shared across runs and never modified.
type FuncCache interface {
	GetAnalysis(key, fn string) (*phase2.FuncAnalysis, bool)
	PutAnalysis(key, fn string, fa *phase2.FuncAnalysis)
	GetPlans(key, fn string) (map[string]*LoopPlan, bool)
	PutPlans(key, fn string, plans map[string]*LoopPlan)
}

// Reuse configures incremental per-function reuse for one Run.
type Reuse struct {
	// Keys maps function name → content-addressed unit key (see
	// incr.UnitKeys). Functions without a key always recompute.
	Keys map[string]string
	// Cache is the shared unit store.
	Cache FuncCache
}

// IncrStats counts one run's unit-cache consultations (whole-process
// totals live on the cache itself).
type IncrStats struct {
	FuncHits, FuncMisses int
	PlanHits, PlanMisses int
}

// enabled reports whether reuse is fully configured.
func (r *Reuse) enabled() bool {
	return r != nil && r.Cache != nil && len(r.Keys) > 0
}

// writeField writes a length-prefixed field, keeping concatenated
// fields unambiguous.
func writeField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// PropsDigest returns a deterministic digest of a merged property
// database. ArrayProperty.String() covers the paper-visible fields
// (array, kind, strictness, direction, dims, index section, value
// range); the definition-site and counter fields it omits also feed
// dependence decisions, so they are hashed explicitly. Iteration is
// deterministic: Arrays() is sorted and per-array properties keep the
// sorted-function-name merge order from Run.
func PropsDigest(db *property.DB) string {
	h := sha256.New()
	writeField(h, "subsub/props/v1")
	for _, arr := range db.Arrays() {
		writeField(h, arr)
		for _, p := range db.Lookup(arr) {
			writeField(h, p.String())
			writeField(h, p.Counter)
			if p.CounterFinal != nil {
				writeField(h, p.CounterFinal.String())
			} else {
				writeField(h, "")
			}
			writeField(h, p.DefLoop)
			writeField(h, p.DefFunc)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// PlanKey derives the Pass-2 tier key for a function from its Pass-1
// unit key and the merged-DB digest.
func PlanKey(unitKey, propsDigest string) string {
	return unitKey + "\x00plans\x00" + propsDigest
}
