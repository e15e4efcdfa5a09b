namespace a {
int plain_value = 0;  // analyze: allow(unused-include)
}  // namespace a
