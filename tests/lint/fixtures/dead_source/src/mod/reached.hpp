// Reached: tools/tool.cpp includes this header.
#pragma once

int reached_value();
