// Package shape plants dead declarations next to live ones that share their
// names, and live ones that no call site names directly.
package shape

import "encoding/json"

// Shape is dispatched through for Area only; nothing calls Name.
type Shape interface {
	Area() float64
	Name() string
}

type Circle struct{ R float64 }

func (c Circle) Area() float64          { return 3 * c.R * c.R }
func (c Circle) Name() string           { return "circle" }
func (c Circle) Scale(f float64) Circle { return Circle{c.R * f} }

type Square struct{ S float64 }

func (s Square) Area() float64 { return s.S * s.S }
func (s Square) Name() string  { return "square" }

// Scale shares its name with the live Circle.Scale; nothing calls it.
func (s Square) Scale(f float64) Square { return Square{s.S * f} }

const unusedSides = 4

// Area sums areas through the interface.
func Area(shapes ...Shape) float64 {
	var a float64
	for _, s := range shapes {
		a += s.Area()
	}
	return a
}

// Box's Get is named only through an instantiation.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func NewBox[T any](v T) Box[T] { return Box[T]{v} }

// Label is encoded by encoding/json, which calls MarshalJSON.
type Label string

func (l Label) MarshalJSON() ([]byte, error) { return json.Marshal("label:" + string(l)) }

var registered []string

// register is named only by a blank variable's initializer.
func register(name string) bool {
	registered = append(registered, name)
	return true
}

var _ = register("circle")

func Registered() []string { return registered }
