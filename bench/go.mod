module mmbench/bench

go 1.24

require mmbench v0.0.0

replace mmbench => ../
