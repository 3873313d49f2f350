package serve

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file is the one grammar every serving spec shares (ParseAutoscale,
// ParseFaults, ParseRetry, ParseHedge, ParseShed, ParseHandoff):
//
//	"" or "off"    the zero value
//	"on"           the type's defaults, for types that have them
//	"k=v,k=v,..."  explicit fields; a field left out keeps its zero value
//
// The whole spec, each field and each side of "=" are trimmed, and empty
// fields are skipped. Each Parse* function is a table of typed fields over
// parseSpec. On any error it returns the zero value, not a usable
// fallback, so a caller that drops the error cannot silently run without
// the policy the user asked for.

// specField is one key of a spec: set parses a value into the field's
// target and reports whether the value is acceptable; want describes the
// acceptable values for the error message.
type specField struct {
	key, want string
	set       func(v string) bool
}

// parseSpec parses s into *dst. on holds the "on" defaults (nil: "on" is
// rejected like any field without "="). An explicit spec must leave
// enabled(*dst) true (nil: any spec is accepted); need names the fields
// that enable it. The fields' targets point into *dst, which is reset to
// the zero value on any error.
func parseSpec[T any](dst *T, kind, s string, on *T, enabled func(T) bool, need string, fields ...specField) (err error) {
	defer func() {
		if err != nil {
			*dst = *new(T)
		}
	}()
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return nil
	}
	if s == "on" && on != nil {
		*dst = *on
		return nil
	}
	var keys []string
	for _, f := range fields {
		keys = append(keys, f.key)
	}
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("serve: bad %s field %q (want key=value with key %s)", kind, part, strings.Join(keys, "|"))
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		i := slices.IndexFunc(fields, func(f specField) bool { return f.key == k })
		if i < 0 {
			return fmt.Errorf("serve: unknown %s field %q (want %s)", kind, k, strings.Join(keys, "|"))
		}
		if !fields[i].set(v) {
			return fmt.Errorf("serve: bad %s %s %q (want %s)", kind, k, v, fields[i].want)
		}
	}
	if enabled != nil && !enabled(*dst) {
		return fmt.Errorf("serve: %s spec %q enables nothing (set %s, or use \"on\")", kind, s, need)
	}
	return nil
}

// The number rules keep every virtual time a spec can produce
// representable (time.Duration spans ±292 years) and every clock-driven
// process finite. Config.Validate applies them to programmatic configs.
const (
	// maxSpecDuration caps every spec duration: over a year of virtual
	// time, yet hundreds of them still fit in a time.Duration.
	maxSpecDuration = 10000 * time.Hour
	// minPeriod floors the mean period of the clock-driven processes
	// (autoscale interval, crash and straggler gaps). A faster clock floods
	// the event loop with ticks or windows, and a crash process far faster
	// than a batch never lets it finish (mtbf=100ms never terminates).
	minPeriod = time.Second
	// maxStragglerFactor caps the straggler multiplier: a slower replica is
	// better modelled as down.
	maxStragglerFactor = 1000
	// maxRepairGaps caps mttr at this many straggler gaps when both fault
	// processes run: straggler windows are drawn on down replicas too, and
	// mtbf=1s,mttr=10000h,straggle=1s would draw some 10^8 of them.
	maxRepairGaps = 100000
	// minHandoffRate floors a non-zero handoff rate, in tokens/s.
	minHandoffRate = 1
)

// durField accepts a duration in [min, maxSpecDuration].
func durField(key string, dst *time.Duration, min time.Duration) specField {
	return specField{key, fmt.Sprintf("a duration in [%v, %v]", min, maxSpecDuration), func(v string) bool {
		d, err := time.ParseDuration(v)
		*dst = d
		return err == nil && d >= min && d <= maxSpecDuration
	}}
}

// periodField accepts 0 (the process is off) or a mean period in
// [minPeriod, maxSpecDuration].
func periodField(key string, dst *time.Duration) specField {
	return specField{key, fmt.Sprintf("0 or a duration in [%v, %v]", minPeriod, maxSpecDuration), func(v string) bool {
		d, err := time.ParseDuration(v)
		*dst = d
		return err == nil && (d == 0 || d >= minPeriod && d <= maxSpecDuration)
	}}
}

// intField accepts an integer of at least min.
func intField(key string, dst *int, min int) specField {
	want := fmt.Sprintf("an integer >= %d", min)
	if min == math.MinInt {
		want = "an integer"
	}
	return specField{key, want, func(v string) bool {
		n, err := strconv.Atoi(v)
		*dst = n
		return err == nil && n >= min
	}}
}

// uintField accepts an unsigned 64-bit integer.
func uintField(key string, dst *uint64) specField {
	return specField{key, "an unsigned integer", func(v string) bool {
		n, err := strconv.ParseUint(v, 10, 64)
		*dst = n
		return err == nil
	}}
}

// floatRule is the range of one float field; ok also rejects NaN and ±Inf.
type floatRule struct {
	want string
	in   func(x float64) bool
}

func (r floatRule) ok(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && r.in(x) }

// floatField accepts a number the rule holds in range.
func floatField(key string, dst *float64, r floatRule) specField {
	return specField{key, r.want, func(v string) bool {
		x, err := strconv.ParseFloat(v, 64)
		*dst = x
		return err == nil && r.ok(x)
	}}
}

var (
	fracRule   = floatRule{"a fraction in (0, 1]", func(x float64) bool { return x > 0 && x <= 1 }}
	slowRule   = floatRule{"a factor in [1, 1000]", func(x float64) bool { return x >= 1 && x <= maxStragglerFactor }}
	factorRule = floatRule{"a finite factor > 0", func(x float64) bool { return x > 0 }}
	jitterRule = floatRule{"a finite number >= 0", func(x float64) bool { return x >= 0 }}
	rateRule   = floatRule{"0 or a finite rate >= 1 token/s", func(x float64) bool { return x == 0 || x >= minHandoffRate }}
)
