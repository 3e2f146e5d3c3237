// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the program's packages through the replace below.
module bionicdb/benchmark

go 1.22

require bionicdb v0.0.0

replace bionicdb => ../
