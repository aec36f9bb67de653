#include "mod/reached.hpp"

int main() { return reached_value() == 42 ? 0 : 1; }
