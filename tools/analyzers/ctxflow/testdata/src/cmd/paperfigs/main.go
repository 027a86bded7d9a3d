// Command paperfigs is a golden fixture: package main is the one place a
// process-lifetime context root may be minted.
package main

import "context"

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	<-ctx.Done()
}
