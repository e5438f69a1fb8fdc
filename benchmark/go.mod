module exadla/benchmark

go 1.22

require exadla v0.0.0

replace exadla => ../
