// Command fixture is the reachability tool's test input.
package main

import (
	"flag"
	"fmt"

	"fixture/lib"
)

// level is set only through flag.Value: nothing calls its methods directly.
type level int

// String implements flag.Value.
func (l *level) String() string { return fmt.Sprint(int(*l)) }

// Set implements flag.Value.
func (l *level) Set(s string) error {
	_, err := fmt.Sscan(s, (*int)(l))
	return err
}

func main() {
	var l level
	flag.Var(&l, "level", "verbosity")
	flag.Parse()
	fmt.Println(lib.Direct(), lib.Second, lib.NewFields().Use(1))
}
