package main

import (
	"encoding/json"
	"fmt"

	"reachfixture"
	"reachfixture/internal/shape"
)

func main() {
	c := shape.Circle{R: 1}.Scale(2)
	fmt.Println(reachfixture.Area(c, shape.Square{S: 1}))
	fmt.Println(shape.NewBox(3).Get())
	b, _ := json.Marshal(shape.Label("x"))
	fmt.Println(string(b), shape.Registered())
}
