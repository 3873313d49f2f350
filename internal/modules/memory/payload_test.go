package memory_test

import (
	"math"
	"reflect"
	"testing"

	"embench/internal/env/boxworld"
	"embench/internal/env/craftworld"
	"embench/internal/env/gridhouse"
	"embench/internal/env/kitchen"
	"embench/internal/env/kitchenctl"
	"embench/internal/env/tabletop"
	"embench/internal/geom"
	"embench/internal/modules/memory"
	"embench/internal/rng"
	"embench/internal/systems"
	"embench/internal/world"
)

// payloadCases holds, for every payload type the six domains put in
// records, two separately built equal values and one unequal value.
var payloadCases = []struct {
	a, same, other any
}{
	{"layout", "layout", "recipes"},
	{3, 3, 4},
	{boxworld.BoxFact{ID: 1, Cell: 2, Goal: 3, Heavy: true}, boxworld.BoxFact{ID: 1, Cell: 2, Goal: 3, Heavy: true}, boxworld.BoxFact{ID: 1, Cell: 2, Goal: 3, Gone: true}},
	{boxworld.ClaimFact{Agent: 1, Box: 2}, boxworld.ClaimFact{Agent: 1, Box: 2}, boxworld.ClaimFact{Agent: 2, Box: 2}},
	{craftworld.NodeFact{ID: 1, Kind: craftworld.Log, Cell: world.Cell{X: 1, Y: 2}, Tier: 0}, craftworld.NodeFact{ID: 1, Kind: craftworld.Log, Cell: world.Cell{X: 1, Y: 2}}, craftworld.NodeFact{ID: 1, Kind: craftworld.Planks, Cell: world.Cell{X: 1, Y: 2}}},
	{map[craftworld.Item]int{craftworld.Log: 2}, map[craftworld.Item]int{craftworld.Log: 2}, map[craftworld.Item]int{craftworld.Log: 3}},
	{gridhouse.ObjFact{ID: 1, Cell: world.Cell{X: 3, Y: 4}, CarriedBy: -1}, gridhouse.ObjFact{ID: 1, Cell: world.Cell{X: 3, Y: 4}, CarriedBy: -1}, gridhouse.ObjFact{ID: 1, Cell: world.Cell{X: 3, Y: 5}, CarriedBy: -1}},
	{gridhouse.AgentFact{ID: 0, Cell: world.Cell{X: 1}, Carrying: -1}, gridhouse.AgentFact{ID: 0, Cell: world.Cell{X: 1}, Carrying: -1}, gridhouse.AgentFact{ID: 0, Cell: world.Cell{X: 1}, Carrying: 2}},
	{gridhouse.ClaimFact{Agent: 1, Object: 2}, gridhouse.ClaimFact{Agent: 1, Object: 2}, gridhouse.ClaimFact{Agent: 1, Object: 3}},
	{kitchen.OrderFact{ID: 1, Recipe: "soup", Stages: 3, Deadline: 40}, kitchen.OrderFact{ID: 1, Recipe: "so" + "up", Stages: 3, Deadline: 40}, kitchen.OrderFact{ID: 1, Recipe: "salad", Stages: 3, Deadline: 40}},
	{kitchen.ProgressFact{Order: 1, Stage: 0}, kitchen.ProgressFact{Order: 1, Stage: 0}, kitchen.ProgressFact{Order: 1, Stage: 1}},
	{kitchen.ClaimFact{Agent: 0, Order: 1, Stage: 2}, kitchen.ClaimFact{Agent: 0, Order: 1, Stage: 2}, kitchen.ClaimFact{Agent: 1, Order: 1, Stage: 2}},
	{[]int{0, 2, 5}, []int{0, 2, 5}, []int{0, 2}},
	{kitchenctl.ElemFact{Element: 1, Value: 0.5}, kitchenctl.ElemFact{Element: 1, Value: 0.5}, kitchenctl.ElemFact{Element: 1, Value: math.NaN()}},
	{tabletop.ObjFact{ID: 1, Pos: geom.Point{X: 0.5, Y: 1}, Goal: geom.Point{X: 2}}, tabletop.ObjFact{ID: 1, Pos: geom.Point{X: 0.5, Y: 1}, Goal: geom.Point{X: 2}}, tabletop.ObjFact{ID: 1, Pos: geom.Point{X: 0.5, Y: 1}, Goal: geom.Point{X: 2}, Delivered: true}},
	{tabletop.ClaimFact{Agent: 1, Object: 2}, tabletop.ClaimFact{Agent: 1, Object: 2}, tabletop.ClaimFact{Agent: 0, Object: 2}},
}

// TestSamePayloadAgreesWithDeepEqual holds SamePayload to
// reflect.DeepEqual on every domain payload type: equal pairs, unequal
// pairs, NaN fields, nil, and pairs of different types.
func TestSamePayloadAgreesWithDeepEqual(t *testing.T) {
	check := func(a, b any) {
		t.Helper()
		if got, want := memory.SamePayload(a, b), reflect.DeepEqual(a, b); got != want {
			t.Errorf("SamePayload(%#v, %#v) = %v, DeepEqual says %v", a, b, got, want)
		}
	}
	for i, c := range payloadCases {
		check(c.a, c.same)
		check(c.a, c.other)
		check(c.other, c.other)
		check(c.a, nil)
		check(nil, c.a)
		next := payloadCases[(i+1)%len(payloadCases)]
		check(c.a, next.a)
	}
	check(nil, nil)
	nan := kitchenctl.ElemFact{Value: math.NaN()}
	check(nan, nan)
	check(0.0, math.Copysign(0, -1))
}

// TestPayloadCasesCoverDomains keeps payloadCases complete: every payload
// type a workload's domain emits in its static and observed records has a
// row.
func TestPayloadCasesCoverDomains(t *testing.T) {
	covered := map[reflect.Type]bool{}
	for _, c := range payloadCases {
		covered[reflect.TypeOf(c.a)] = true
	}
	for _, name := range systems.Names() {
		w, _ := systems.Get(name)
		d := w.NewDomain(3, world.Hard, rng.New(1))
		recs := d.StaticRecords()
		for step := 0; step < 3 && !d.Done(); step++ {
			for agent := 0; agent < d.Agents(); agent++ {
				recs = append(recs, d.Observe(agent).Records...)
			}
			d.Tick()
		}
		for _, r := range recs {
			if typ := reflect.TypeOf(r.Payload); r.Payload != nil && !covered[typ] {
				covered[typ] = true // report each missing type once
				t.Errorf("%s emits payload type %v with no row in payloadCases", name, typ)
			}
		}
	}
}
