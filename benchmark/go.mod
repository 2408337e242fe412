module tramlib/benchmark

go 1.23

require tramlib v0.0.0

replace tramlib => ../
